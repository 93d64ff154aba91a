//! Seeded input generation: delay-window perturbations of the shipped
//! scenarios and the per-workload job lists built from them.
//!
//! Everything here is a pure function of the seed, so one seed always
//! yields the same model texts in the same order (the self-tests pin it).
//! The program under test only ever sees the generated model *text*.

use std::collections::HashMap;

use transyt_cli::scenarios;
use transyt_session::format::{Model, ModelSource, PropertySpec};
use tts::{Bound, DelayInterval, Time};

/// SplitMix64: tiny, seedable, and good enough to pick perturbations.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `-spread..=spread`.
    pub fn offset(&mut self, spread: i64) -> i64 {
        self.below((2 * spread + 1) as u64) as i64 - spread
    }
}

/// The transistor-level 1-stage pipeline `IN || I || OUT` (the system of
/// Table 1's experiment 5), as a `.tts` model.
pub const FLAT_1STAGE: &str = "ipcmos_1stage_flat.tts";

/// The base model `file`: a shipped scenario (e.g. `ipcmos_1stage.stg`),
/// built by the scenario library rather than read from disk, or
/// [`FLAT_1STAGE`], built by the `ipcmos` builders.
pub fn base_model(file: &str) -> Model {
    if file == FLAT_1STAGE {
        return flat_1stage();
    }
    scenarios::find(file)
        .unwrap_or_else(|| panic!("unknown scenario {file}"))
        .model
}

fn flat_1stage() -> Model {
    let timed = ipcmos::flat_pipeline(1).expect("the flat 1-stage pipeline composes");
    let mut delays: Vec<_> = timed.delays().collect();
    delays.sort_by_key(|(event, _)| event.index());
    let ts = timed.underlying().clone();
    let delays = delays
        .into_iter()
        .map(|(event, delay)| (ts.alphabet().name(event).to_owned(), delay))
        .collect();
    Model {
        name: "ipcmos_1stage_flat".to_owned(),
        source: ModelSource::Tts(ts),
        delays,
        property: PropertySpec {
            deadlock_free: true,
            forbid_marked: true,
            persistent: ipcmos::flat_pipeline_persistent_events(1),
        },
    }
}

/// Delay windows changed per perturbation. Few enough that each class's
/// search-space size (and so its cost) stays close to the unperturbed
/// model's for every seed.
pub const PERTURBED_WINDOWS: usize = 2;

/// `base` with [`PERTURBED_WINDOWS`] randomly chosen delay windows moved
/// by at most `spread` time units per bound (lower bounds stay
/// non-negative, upper bounds stay at or above the lower bound, infinite
/// bounds stay infinite) and its name suffixed with `tag`, so every
/// generated job has its own content hash and task key.
pub fn perturb(base: &Model, rng: &mut Rng, spread: i64, tag: &str) -> Model {
    let mut model = base.clone();
    model.name = format!("{}_{tag}", base.name);
    let count = model.delays.len();
    let mut chosen: Vec<usize> = (0..count).collect();
    for i in 0..PERTURBED_WINDOWS.min(count) {
        let j = i + rng.below((count - i) as u64) as usize;
        chosen.swap(i, j);
    }
    for &slot in chosen.iter().take(PERTURBED_WINDOWS) {
        let delay = &mut model.delays[slot].1;
        let lower = (delay.lower().as_i64() + rng.offset(spread)).max(0);
        let upper = match delay.upper() {
            Bound::Finite(u) => {
                Bound::Finite(Time::new((u.as_i64() + rng.offset(spread)).max(lower)))
            }
            Bound::Infinite => Bound::Infinite,
        };
        *delay = DelayInterval::with_bound(Time::new(lower), upper)
            .expect("perturbed bounds keep 0 <= lower <= upper");
    }
    model
}

/// What a job asks of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work {
    /// A `Session` task: the generated model text, the command and its
    /// query parameters (the same lowering the CLI and the server use).
    Task {
        text: String,
        command: &'static str,
        params: Vec<(String, String)>,
    },
    /// One obligation of the paper's Table 1 (1-based), run through
    /// `transyt::verify` on systems built by the `ipcmos` builders.
    Experiment(usize),
}

/// One job of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The job class: the base scenario (plus a variant tag), used to
    /// look up known answers and to group results.
    pub class: &'static str,
    pub work: Work,
}

/// Largest perturbation of a delay bound, in time units.
pub const SPREAD: i64 = 1;

/// Configuration limit of the 3-stage `zones` job: it aborts at exactly
/// `limit + 1` configurations, so most of its time is the 48,000-marking
/// expansion and the local-bound analysis that precede the zone search.
pub const ZONES_3STAGE_LIMIT: usize = 2_000;

/// Limit for perturbed `zones` jobs, far above what any of them needs.
pub const ZONES_LIMIT: usize = 500_000;

/// Builds job lists.
pub struct Generator {
    rng: Rng,
    threads: usize,
    next_tag: usize,
    bases: HashMap<String, Model>,
}

impl Generator {
    pub fn new(seed: u64, threads: usize) -> Generator {
        Generator {
            rng: Rng::new(seed),
            threads,
            next_tag: 0,
            bases: HashMap::new(),
        }
    }

    /// A fresh perturbation of scenario `file`.
    pub fn perturbed_text(&mut self, file: &str) -> String {
        let base = self
            .bases
            .entry(file.to_owned())
            .or_insert_with(|| base_model(file))
            .clone();
        // The unique name tag, written into the model header, is what
        // makes every generated text (and so every TaskKey) distinct.
        let tag = format!("j{}", self.next_tag);
        self.next_tag += 1;
        perturb(&base, &mut self.rng, SPREAD, &tag).to_text()
    }

    fn task(&self, command: &'static str, text: String, extra: &[(&str, String)]) -> Work {
        let mut params = vec![("threads".to_owned(), self.threads.to_string())];
        params.extend(extra.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        Work::Task {
            text,
            command,
            params,
        }
    }

    /// `zones`, run once per run: the unperturbed 2-stage pipeline and
    /// transistor-level 1-stage pipeline (whose counts are pinned) and the
    /// 3-stage pipeline under a fixed configuration limit. (A perturbed 2-stage pipeline costs anywhere
    /// from 1.2 to 2.7 s depending on the seed, which would swing the
    /// run's throughput by ~15% between seeds, so none is included.)
    pub fn zones_prologue(&mut self) -> Vec<Job> {
        let limit = [("limit", ZONES_LIMIT.to_string())];
        vec![
            Job {
                class: "ipcmos_2stage.exact",
                work: self.task("zones", base_model("ipcmos_2stage.stg").to_text(), &limit),
            },
            Job {
                class: "ipcmos_1stage_flat.exact",
                work: self.task("zones", base_model(FLAT_1STAGE).to_text(), &limit),
            },
            Job {
                class: "ipcmos_3stage.limited",
                work: self.task(
                    "zones",
                    base_model("ipcmos_3stage.stg").to_text(),
                    &[("limit", ZONES_3STAGE_LIMIT.to_string())],
                ),
            },
        ]
    }

    /// `zones` rounds: two perturbed transistor-level 1-stage pipelines
    /// and one perturbed pulse-level one.
    pub fn zones_round(&mut self) -> Vec<Job> {
        let limit = [("limit", ZONES_LIMIT.to_string())];
        [FLAT_1STAGE, FLAT_1STAGE, "ipcmos_1stage.stg"]
            .into_iter()
            .map(|file| {
                let text = self.perturbed_text(file);
                Job {
                    class: file,
                    work: self.task("zones", text, &limit),
                }
            })
            .collect()
    }

    /// `refine`: the five Table 1 obligations, then `verify` on each
    /// perturbed small shipped model and on [`REFINE_2STAGE_JOBS`]
    /// perturbed 2-stage pipelines. See [`REFINE_2STAGE_JOBS`] for
    /// the proportion.
    pub fn refine_round(&mut self) -> Vec<Job> {
        let mut jobs: Vec<Job> = (1..=5)
            .map(|n| Job {
                class: EXPERIMENT_CLASSES[n - 1],
                work: Work::Experiment(n),
            })
            .collect();
        for file in REFINE_SMALL
            .into_iter()
            .chain(std::iter::repeat_n("ipcmos_2stage.stg", REFINE_2STAGE_JOBS))
        {
            let text = self.perturbed_text(file);
            jobs.push(Job {
                class: file,
                work: self.task("verify", text, &[]),
            });
        }
        jobs
    }

    /// The uniform draw a workload uses for its own choices (the service
    /// mix), from the same seeded stream.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

pub const REFINE_SMALL: [&str; 5] = [
    "ipcmos_1stage.stg",
    "intro_fig1.tts",
    "c_element.stg",
    "race_overlap.tts",
    "ring_pipeline.stg",
];
/// Perturbed 2-stage jobs per `refine` round.
///
/// The 2-stage jobs (10 to 25 ms of engine work) carry the round's p50 and
/// tail, and the round's cheaper jobs are just enough to put the p50 near
/// the 2-stage class's 15th percentile (2/13) rather than at its middle.
/// On a shared 2-vCPU host a single-threaded job runs in a fast or a slow
/// mode (~1.6 times apart) whose mix changes from run to run; over eight
/// runs of the same jobs the class's 10th to 17th percentiles spread 0.10
/// to 0.14 of their median, its 33rd to 50th percentiles 0.28 to 0.40.
pub const REFINE_2STAGE_JOBS: usize = 12;
pub const EXPERIMENT_CLASSES: [&str; 5] = [
    "table1.exp1",
    "table1.exp2",
    "table1.exp3",
    "table1.exp4",
    "table1.exp5",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        let lists = |seed| {
            let mut g = Generator::new(seed, 2);
            let mut jobs = g.zones_prologue();
            for _ in 0..3 {
                jobs.extend(g.zones_round());
                jobs.extend(g.refine_round());
            }
            jobs
        };
        assert_eq!(lists(7), lists(7));
        assert_ne!(lists(7), lists(8));
    }

    #[test]
    fn generated_texts_are_distinct_and_parse() {
        let mut g = Generator::new(3, 2);
        let mut texts = std::collections::HashSet::new();
        for _ in 0..4 {
            for job in g.refine_round() {
                if let Work::Task { text, .. } = job.work {
                    Model::parse(&text).expect("generated text parses");
                    assert!(texts.insert(text), "a task text repeated");
                }
            }
        }
    }

    #[test]
    fn perturbation_stays_within_spread_and_keeps_infinity() {
        let base = base_model("ipcmos_1stage.stg");
        let mut rng = Rng::new(11);
        let moved = perturb(&base, &mut rng, SPREAD, "t");
        let mut changed = 0;
        for ((_, old), (_, new)) in base.delays.iter().zip(&moved.delays) {
            assert!((old.lower().as_i64() - new.lower().as_i64()).abs() <= SPREAD);
            assert_eq!(old.upper().is_infinite(), new.upper().is_infinite());
            changed += usize::from(old != new);
        }
        assert!(changed <= PERTURBED_WINDOWS);
    }
}
