//! `transyt store` — offline administration of a `serve --data-dir` data
//! dir.
//!
//! * `ls` uses the read-only [`Store::inspect`] path: it never writes, never
//!   truncates a torn journal tail, and is therefore safe to run next to a
//!   live server owning the same directory.
//! * `gc` opens the store read-write (truncating a torn tail, rewriting the
//!   journal) and must only run while no server owns the directory; it
//!   applies the same LRU-by-age + TTL rules the server applies at startup.

use std::time::Duration;

use transyt_store::Store;

use crate::commands::CliError;

/// `transyt store ls`: a read-only listing of a data dir — stored models,
/// stored results, the replayed job table and the journal's health.
///
/// # Errors
///
/// [`CliError::Run`] when the directory is missing or the journal is
/// unreadable.
pub fn cmd_ls(data_dir: &str) -> Result<(), CliError> {
    let inspection = Store::inspect(data_dir)
        .map_err(|e| CliError::Run(format!("inspecting {data_dir}: {e}")))?;
    println!("data dir {data_dir}");
    println!(
        "journal: {} entr{}, {} bytes{}",
        inspection.journal_entries,
        if inspection.journal_entries == 1 {
            "y"
        } else {
            "ies"
        },
        inspection.journal_bytes,
        if inspection.torn_bytes > 0 {
            format!(" ({} torn trailing bytes)", inspection.torn_bytes)
        } else {
            String::new()
        },
    );
    println!("models ({}):", inspection.models.len());
    for (hash, bytes) in &inspection.models {
        println!("  {hash}  {bytes} bytes");
    }
    println!("results ({}):", inspection.results.len());
    for (fingerprint, bytes, age) in &inspection.results {
        match age {
            Some(age) => println!("  {fingerprint}  {bytes} bytes  age {}s", age.as_secs()),
            None => println!("  {fingerprint}  {bytes} bytes"),
        }
    }
    println!("jobs ({}):", inspection.jobs.len());
    for job in &inspection.jobs {
        println!(
            "  #{} {}{} {} @ {}",
            job.id,
            job.status,
            if job.evicted { " (evicted)" } else { "" },
            job.command,
            job.model
        );
    }
    Ok(())
}

/// `transyt store gc`: offline garbage collection of a data dir. Opens the
/// store read-write (the owning server must be stopped), drops stored
/// results past the cap / TTL plus orphaned files, and compacts the journal.
///
/// # Errors
///
/// [`CliError::Run`] on filesystem failures.
pub fn cmd_gc(
    data_dir: &str,
    keep_results: usize,
    result_ttl: Option<Duration>,
) -> Result<(), CliError> {
    let (store, mut recovery) = Store::open(data_dir, true)
        .map_err(|e| CliError::Run(format!("opening {data_dir}: {e}")))?;
    let report = store
        .gc(&mut recovery, keep_results, result_ttl)
        .map_err(|e| CliError::Run(format!("collecting {data_dir}: {e}")))?;
    for fingerprint in &report.removed {
        println!("removed result {fingerprint}");
    }
    println!(
        "kept {} result{}, journal compacted to {} bytes",
        report.kept,
        if report.kept == 1 { "" } else { "s" },
        report.journal_bytes,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_refuses_a_missing_dir_and_gc_is_callable() {
        let dir =
            std::env::temp_dir().join(format!("transyt-store-admin-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let missing = dir.join("nope");
        assert!(cmd_ls(missing.to_str().unwrap()).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap();
        // An empty dir gcs to an empty report and lists cleanly afterwards.
        cmd_gc(dir_str, 4, Some(Duration::from_secs(60))).unwrap();
        cmd_ls(dir_str).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
