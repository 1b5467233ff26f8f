//! The sharded, resumable campaign runner.
//!
//! A campaign directory is the unit of persistence:
//!
//! ```text
//! <dir>/campaign.toml    — scenario snapshot (written once, verified on resume)
//! <dir>/trials.jsonl     — one JSON record per completed (cell, repeat) trial
//! <dir>/artifacts/       — study campaigns: one frozen weight file per model
//! <dir>/artifacts.jsonl  — study campaigns: append-only publication records
//! <dir>/summary.txt      — rendered result table (written when complete)
//! ```
//!
//! Work is sharded `(cell × repeat)` across worker threads through an
//! atomic cursor; every trial's seed follows the campaign's
//! [`Campaign::trial_seed`] scheme (`derive_seed(master, cell *
//! repeats + repeat)` for classic sweeps, the study geometry's
//! row-seed streams for studies), so a campaign interrupted at any
//! point and resumed — with any thread count — replays the missing
//! trials with identical seeds. Final per-cell statistics fold the
//! persisted values in repeat order through
//! [`frlfi_fault::aggregate_in_order`], which is bit-identical to
//! what the in-process `sweep` engine produces for the same trials.
//!
//! **Study campaigns** (`fig4`, `fig8a/b`, `datatypes`, `layers`)
//! expand into a small task DAG instead of a flat sweep: **train**
//! tasks publish each model's weights atomically through
//! [`crate::artifacts`], and **eval** trials only become claimable
//! once every artifact record has landed — the weights are loaded
//! (digest-verified) instead of retrained, so each model trains
//! exactly once per campaign however many workers join. A failed
//! train task is quarantined and deterministically poisons its
//! dependent evals (degraded summary, nonzero exit); because training
//! is a pure function of the geometry, a later healthy run retrains
//! bitwise-identically and completes the campaign.

use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use frlfi::experiments::harness::GridPrefix;
use frlfi::report::Table;
use frlfi_fault::{aggregate_in_order, CellStats};
use serde::{Map, Value};

use crate::coord::{CoordConfig, Coordinator};
use crate::fmt::json;
use crate::io::{self, lock_recover};
use crate::quarantine::{self, QuarantineKind, QuarantineRecord};
use crate::spec::{Campaign, CellGrid, Scenario};

/// How a runner coordinates trial ownership with other processes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CoordMode {
    /// This process assumes it is the only writer of the campaign
    /// directory: trials shard over threads through an in-memory
    /// cursor, with no claim log.
    #[default]
    Exclusive,
    /// The campaign directory is a shared work queue: trials are
    /// acquired through the `claims.jsonl` lease protocol (see
    /// [`crate::coord`]), so any number of `campaign run --shared` /
    /// `campaign worker` processes — across cores, cgroups or machines
    /// sharing the filesystem — split one campaign. Statistics and
    /// `summary.txt` are byte-identical to an [`CoordMode::Exclusive`]
    /// single-thread run.
    Shared(CoordConfig),
}

/// Runner options.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Stop after this many *new* trials (used to exercise the
    /// interrupt/resume path; `None` = run to completion).
    pub max_new_trials: Option<usize>,
    /// Ignored: every trial runs the one execution path (batched
    /// training and lock-step greedy evaluation, see
    /// [`crate::Campaign::run_trial`]). The field remains only so that
    /// callers written against the former two-path API — the
    /// `benchmark/` crate sets it — keep compiling.
    pub batched: bool,
    /// Append the wide per-cell statistics table (mean / min / max /
    /// 95% CI half-width over repeats) to `summary.txt` after the
    /// standard means grid.
    pub wide_summary: bool,
    /// Multi-process coordination mode.
    pub coord: CoordMode,
    /// Stream structured observability events — trial/train/eval
    /// spans, io/aggregate timers, kernel-dispatch counters (see
    /// [`frlfi_obs`]) — to `<dir>/obs/worker-<id>.jsonl` for the
    /// duration of this call. Purely additive: trial values, the
    /// persisted trial log and `summary.txt` stay byte-identical
    /// whether the recorder is on or off.
    pub obs: bool,
    /// Treat a degraded outcome (some trials quarantined after their
    /// I/O retries exhausted, queue otherwise drained) as success:
    /// the run returns `Ok` with the explicitly marked degraded
    /// `summary.txt` in place, instead of the default nonzero-exit
    /// error. The quarantined trials stay reclaimable either way.
    pub allow_partial: bool,
}

/// RAII guard for the process-global [`frlfi_obs`] recorder: when
/// [`RunnerConfig::obs`] is set, installs a JSONL sink at
/// `<dir>/obs/worker-<id>.jsonl` for the duration of one run call.
/// Shared mode reuses the coordinator's worker id so profile rows
/// line up with the claim log; exclusive mode tags the process
/// (`x<pid>`). Dropping the guard flushes and closes the sink, so
/// events never leak into a later campaign run in the same process.
struct ObsSession {
    active: bool,
}

impl ObsSession {
    fn start(dir: &Path, cfg: &RunnerConfig) -> Result<ObsSession, String> {
        if !cfg.obs {
            return Ok(ObsSession { active: false });
        }
        let worker = match &cfg.coord {
            CoordMode::Shared(c) => c.worker_id.clone(),
            CoordMode::Exclusive => format!("x{}", std::process::id()),
        };
        let path = dir.join(crate::profile::OBS_DIR).join(format!("worker-{worker}.jsonl"));
        frlfi_obs::install(&path, &worker)
            .map_err(|e| format!("open obs stream {}: {e}", path.display()))?;
        Ok(ObsSession { active: true })
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if self.active {
            frlfi_obs::uninstall();
        }
    }
}

/// One persisted trial result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Cell index (row-major in the campaign's grid).
    pub cell: usize,
    /// Repeat index within the cell.
    pub repeat: usize,
    /// The derived seed the trial ran with.
    pub seed: u64,
    /// The trial's metric value.
    pub value: f64,
}

impl TrialRecord {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("cell".into(), Value::Int(self.cell as i64));
        m.insert("repeat".into(), Value::Int(self.repeat as i64));
        m.insert("seed".into(), Value::Int(self.seed as i64));
        m.insert("value".into(), Value::Float(self.value));
        Value::Table(m)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let get_int = |k: &str| {
            v.get(k)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("trial record missing integer `{k}`"))
        };
        // `cell` / `repeat` are indices: a negative value in a corrupt
        // log must be rejected here, not wrapped by an `as usize` cast
        // into a huge index that [`record_flat_index`] then blames on
        // the wrong campaign. (`seed` legitimately round-trips through
        // i64: u64 seeds above i64::MAX serialize negative.)
        let get_index = |k: &str| -> Result<usize, String> {
            let i = get_int(k)?;
            usize::try_from(i)
                .map_err(|_| format!("trial record `{k}` = {i} is negative — corrupt record"))
        };
        let value = match v.get("value") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            _ => return Err("trial record missing number `value`".into()),
        };
        Ok(TrialRecord {
            cell: get_index("cell")?,
            repeat: get_index("repeat")?,
            seed: get_int("seed")? as u64,
            value,
        })
    }
}

/// The outcome of a run/resume call.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Trials completed across all sessions (persisted).
    pub completed_trials: usize,
    /// Trials the whole campaign needs.
    pub total_trials: usize,
    /// Trials this call executed.
    pub new_trials: usize,
    /// Per-cell statistics — present only when the campaign completed.
    pub stats: Option<Vec<CellStats>>,
    /// Rendered result table — present only when the campaign completed.
    pub table: Option<Table>,
    /// Wide per-cell spread table — present only when the campaign
    /// completed *and* [`RunnerConfig::wide_summary`] was set.
    pub wide_table: Option<Table>,
    /// Flat indices of trials *this call* quarantined after
    /// exhausting their I/O retry budget (sorted). Non-empty only on
    /// degraded outcomes — which return `Ok` solely under
    /// [`RunnerConfig::allow_partial`].
    pub quarantined: Vec<usize>,
}

impl CampaignOutcome {
    /// Whether every (cell × repeat) trial is persisted.
    pub fn complete(&self) -> bool {
        self.completed_trials == self.total_trials
    }
}

/// Runs a scenario in `dir`, resuming any persisted progress.
///
/// First call writes `campaign.toml`; later calls verify the stored
/// scenario matches and skip completed `(cell, repeat)` trials.
///
/// # Errors
///
/// Returns a message on I/O failures, scenario mismatches, or corrupt
/// trial logs.
pub fn run(scenario: &Scenario, dir: &Path, cfg: &RunnerConfig) -> Result<CampaignOutcome, String> {
    io::with_retry("campaign.create", || io::create_dir_all("campaign.create", dir))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let manifest = dir.join("campaign.toml");
    if manifest.exists() {
        let stored = load_scenario(&manifest)?;
        if &stored != scenario {
            return Err(format!(
                "{} holds a different campaign ({} @ {:?}); refusing to mix trial logs",
                dir.display(),
                stored.name,
                stored.scale,
            ));
        }
    } else {
        // Atomic publish: a concurrently joining worker either sees
        // no manifest yet or a complete one, never a torn prefix. Two
        // processes racing `run --shared` both publish identical
        // bytes, so last-rename-wins is harmless.
        write_atomic(dir, "campaign.toml", &scenario.to_toml())?;
    }

    let campaign = scenario.expand().map_err(|e| e.to_string())?;
    run_expanded(&campaign, dir, cfg)
}

/// Resumes the campaign persisted in `dir`.
///
/// # Errors
///
/// As for [`run`]; additionally errors if `dir` has no manifest.
pub fn resume(dir: &Path, cfg: &RunnerConfig) -> Result<CampaignOutcome, String> {
    let scenario = load_scenario(&dir.join("campaign.toml"))?;
    run(&scenario, dir, cfg)
}

/// Loads the scenario manifest of a campaign directory.
///
/// # Errors
///
/// Returns a message if the manifest is missing or malformed.
pub fn load_scenario(manifest: &Path) -> Result<Scenario, String> {
    let text = io::with_retry("manifest.read", || io::read_to_string("manifest.read", manifest))
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    Scenario::from_toml(&text).map_err(|e| format!("{}: {e}", manifest.display()))
}

fn trials_path(dir: &Path) -> PathBuf {
    dir.join("trials.jsonl")
}

/// How [`load_records`] treats lines it cannot parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadPolicy {
    /// Exclusive-writer semantics: a torn *trailing* line (the
    /// crash-interrupted write) is skipped with a warning and the
    /// trial re-runs; a corrupt *interior* line is a hard error naming
    /// its line number — with one writer, interior damage means the
    /// log was edited or belongs to something else.
    Strict,
    /// Shared-queue semantics: any unparseable line is skipped with a
    /// warning naming its line number. With concurrent writers a
    /// killed process's torn tail gets healed into an interior line by
    /// the next appender, so interior damage is expected; skipping is
    /// safe because the dropped trial re-runs bitwise-identically.
    Lenient,
}

/// Reads the persisted trial log under `policy`. Returns the records
/// plus the byte length of the parsed prefix — the exclusive-mode
/// caller truncates any torn tail off before appending, so the
/// fragment can never merge with the next record into one corrupt
/// interior line.
fn load_records(dir: &Path, policy: LoadPolicy) -> Result<(Vec<TrialRecord>, u64), String> {
    let path = trials_path(dir);
    let text = match io::with_retry("trials.read", || match io::open_read("trials.read", &path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
        Ok(mut f) => {
            let mut text = String::new();
            f.read_to_string(&mut text)?;
            Ok(Some(text))
        }
    }) {
        Err(e) => return Err(format!("read {}: {e}", path.display())),
        Ok(None) => return Ok((Vec::new(), 0)),
        Ok(Some(text)) => text,
    };
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let pieces: Vec<&str> = text.split_inclusive('\n').collect();
    for (i, piece) in pieces.iter().enumerate() {
        let line = piece.trim();
        if line.is_empty() {
            valid_len += piece.len() as u64;
            continue;
        }
        match json::parse(line).map_err(|e| e.to_string()).and_then(|v| TrialRecord::from_value(&v))
        {
            Ok(r) => {
                records.push(r);
                valid_len += piece.len() as u64;
            }
            Err(e) if i + 1 == pieces.len() || policy == LoadPolicy::Lenient => {
                frlfi_obs::warn!(
                    "{} line {}: {e}; skipping record (the trial will \
                     re-run with an identical seed, so statistics are unaffected)",
                    path.display(),
                    i + 1
                );
            }
            Err(e) => return Err(format!("{} line {}: {e}", path.display(), i + 1)),
        }
    }
    Ok((records, valid_len))
}

/// Validates one persisted record's coordinates and seed against the
/// campaign's seed scheme (a mismatch means the log belongs to a
/// different campaign) and returns its flat trial index.
fn record_flat_index(campaign: &Campaign, r: &TrialRecord) -> Result<usize, String> {
    let n_cells = campaign.trials.len();
    let repeats = campaign.repeats;
    if r.cell >= n_cells || r.repeat >= repeats {
        return Err(format!(
            "trial log refers to (cell {}, repeat {}) outside the {}×{} campaign — \
             wrong directory?",
            r.cell, r.repeat, n_cells, repeats
        ));
    }
    let flat = r.cell * repeats + r.repeat;
    let expect_seed = campaign.trial_seed(flat);
    if r.seed != expect_seed {
        return Err(format!(
            "trial log seed {:#x} for (cell {}, repeat {}) does not match the campaign \
             master seed scheme (expected {:#x})",
            r.seed, r.cell, r.repeat, expect_seed
        ));
    }
    Ok(flat)
}

/// Folds persisted records into the per-`(cell, repeat)` completion
/// map. Duplicate records — possible when a reaped shared-mode trial
/// was finished by both workers — are benign: determinism makes them
/// bitwise-identical, and later ones overwrite.
fn fold_records(
    campaign: &Campaign,
    records: Vec<TrialRecord>,
) -> Result<Vec<Vec<Option<f64>>>, String> {
    let mut done: Vec<Vec<Option<f64>>> = vec![vec![None; campaign.repeats]; campaign.trials.len()];
    for r in records {
        record_flat_index(campaign, &r)?;
        done[r.cell][r.repeat] = Some(r.value);
    }
    Ok(done)
}

/// An incrementally folded completion view of `trials.jsonl` for the
/// shared run loop: a [`crate::coord::JsonlTailReader`] whose fold
/// validates each record and marks its flat trial done, so a
/// worker's per-claim poll costs O(new records), not O(log). Safe
/// because shared mode never truncates the log.
struct TrialTracker {
    tail: crate::coord::JsonlTailReader,
    done: Vec<bool>,
    completed: usize,
}

impl TrialTracker {
    fn new(dir: &Path, total: usize) -> Self {
        TrialTracker {
            tail: crate::coord::JsonlTailReader::new(trials_path(dir), "trials.read"),
            done: vec![false; total],
            completed: 0,
        }
    }

    /// Folds every complete line appended since the last refresh. A
    /// record that is not shaped like a trial record is skipped (it
    /// re-runs bitwise-identically); one with wrong coordinates or
    /// seed is fatal — the log belongs to a different campaign.
    fn refresh(&mut self, campaign: &Campaign) -> Result<(), String> {
        use crate::coord::FoldError;
        let done = &mut self.done;
        let completed = &mut self.completed;
        self.tail.refresh(|v| {
            let r = TrialRecord::from_value(&v).map_err(FoldError::Skip)?;
            let flat = record_flat_index(campaign, &r).map_err(FoldError::Fatal)?;
            if !done[flat] {
                done[flat] = true;
                *completed += 1;
            }
            Ok(())
        })
    }
}

/// Resolves a thread-count option (0 = available parallelism).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Publishes `dir/<name>` atomically (unique temp file, fsync,
/// rename), so a reader — or a concurrent shared-mode process
/// publishing the identical bytes — never observes a torn file, and
/// a machine-level crash after the rename cannot surface an empty
/// one (the data is durable before the name is).
fn write_atomic(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    // The whole create-write-fsync-rename step retries as one unit:
    // it is idempotent (the temp file is recreated from scratch each
    // attempt), so a transient fault at any of its operations — a
    // short write included — never publishes a torn file.
    io::with_retry("publish", || {
        let mut f = io::create_trunc("publish.create", &tmp)?;
        io::write_all("publish.write", &mut f, text.as_bytes())?;
        io::sync_all("publish.fsync", &f)?;
        drop(f);
        io::rename("publish.rename", &tmp, &dir.join(name))
    })
    .map_err(|e| format!("publish {name}: {e}"))
}

/// The flat completion map (`cell * repeats + repeat` order) of the
/// campaign persisted in `dir`, read leniently — the view `campaign
/// status` and the shared-mode claim loop work from.
pub(crate) fn completed_trials(
    campaign: &Campaign,
    dir: &Path,
) -> Result<Vec<Option<f64>>, String> {
    let (records, _) = load_records(dir, LoadPolicy::Lenient)?;
    Ok(fold_records(campaign, records)?.into_iter().flatten().collect())
}

fn run_expanded(
    campaign: &Campaign,
    dir: &Path,
    cfg: &RunnerConfig,
) -> Result<CampaignOutcome, String> {
    let _obs = ObsSession::start(dir, cfg)?;
    match &cfg.coord {
        CoordMode::Exclusive => run_exclusive(campaign, dir, cfg),
        CoordMode::Shared(coord_cfg) => run_shared(campaign, dir, cfg, coord_cfg),
    }
}

fn run_exclusive(
    campaign: &Campaign,
    dir: &Path,
    cfg: &RunnerConfig,
) -> Result<CampaignOutcome, String> {
    let repeats = campaign.repeats;
    let total = campaign.total_trials();

    // Completed-trial map from the persisted log. The policy follows
    // the *directory's history*, not this call's mode: a campaign
    // that has ever run shared (claims.jsonl present) may carry
    // healed interior fragments from SIGKILLed workers, so its log
    // reads leniently even on an exclusive resume; a never-shared log
    // gets the strict single-writer integrity check.
    let policy = if dir.join(crate::coord::CLAIMS_FILE).exists() {
        LoadPolicy::Lenient
    } else {
        LoadPolicy::Strict
    };
    let (records, valid_len) = load_records(dir, policy)?;
    let mut done = fold_records(campaign, records)?;
    let mut completed = done.iter().flatten().filter(|v| v.is_some()).count();

    // Pending work, bounded by any interrupt budget.
    let mut pending: Vec<(usize, usize)> = Vec::with_capacity(total - completed);
    for (cell, cell_done) in done.iter().enumerate() {
        for (rep, slot) in cell_done.iter().enumerate() {
            if slot.is_none() {
                pending.push((cell, rep));
            }
        }
    }
    if let Some(cap) = cfg.max_new_trials {
        pending.truncate(cap);
    }

    let new_trials = pending.len();
    let mut quarantined: Vec<usize> = Vec::new();
    if new_trials > 0 {
        // Study campaigns run their train tasks first: every eval task
        // below is gated on its model artifact landing in the campaign
        // directory, and a failed train task deterministically poisons
        // all of its dependent evals (degraded summary, nonzero exit).
        let study = match campaign.study() {
            None => None,
            Some(g) => {
                let worker = format!("x{}", std::process::id());
                match ensure_artifacts(g, dir, &worker) {
                    Ok(planes) => Some((g, planes)),
                    Err((model, e)) => {
                        quarantine_train_task(dir, g, model, &worker, e);
                        let poisoned = undone_flats(&done, repeats);
                        return finalize(campaign, dir, cfg, &done, completed, 0, poisoned);
                    }
                }
            }
        };
        let mut file =
            io::with_retry("trials.open", || io::open_append("trials.open", &trials_path(dir)))
                .map_err(|e| format!("open {}: {e}", trials_path(dir).display()))?;
        match policy {
            // Chop any torn tail off before appending, so the fragment
            // cannot merge with the next record into one corrupt line.
            // Only valid under the strict read: there `valid_len` is a
            // clean prefix (bad bytes can only be the tail).
            LoadPolicy::Strict => {
                if file.metadata().map_err(|e| format!("stat trial log: {e}"))?.len() > valid_len {
                    file.set_len(valid_len).map_err(|e| format!("truncate torn trial log: {e}"))?;
                }
            }
            // A shared-history log is never truncated (skipped lines
            // may sit anywhere); heal a torn tail into its own line
            // instead, as shared-mode appenders do.
            LoadPolicy::Lenient => {
                if !crate::coord::ends_with_newline(&mut file)
                    .map_err(|e| format!("{}: {e}", trials_path(dir).display()))?
                {
                    io::with_retry("trials.append", || {
                        io::write_all("trials.append", &mut file, b"\n")
                    })
                    .map_err(|e| format!("heal torn trial log: {e}"))?;
                }
            }
        }
        // The commit sink tracks the committed byte length alongside
        // the handle: under the strict single-writer policy a retry
        // truncates any short-written fragment of the failed attempt
        // back off before rewriting, so the log stays the clean
        // record-per-line prefix the strict loader demands on the
        // next resume.
        let sink = Mutex::new((file, valid_len));
        let cursor = AtomicUsize::new(0);
        let threads = resolve_threads(cfg.threads);
        let fresh: Mutex<Vec<(usize, usize, f64)>> = Mutex::new(Vec::with_capacity(new_trials));
        let poisoned: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
        // Persists one finished trial: line-atomic append + fsync
        // under the retry policy, so a kill between records loses at
        // most the torn tail and a transient I/O error costs only a
        // backoff sleep.
        let commit = |cell: usize, rep: usize, seed: u64, value: f64| -> Result<(), String> {
            let record = TrialRecord { cell, repeat: rep, seed, value };
            let line = json::render(&record.to_value());
            {
                let _io = frlfi_obs::timed("io");
                let mut guard = lock_recover(&sink);
                let (file, committed_len) = &mut *guard;
                io::with_retry("trials.append", || match policy {
                    LoadPolicy::Strict => {
                        if file.metadata()?.len() > *committed_len {
                            file.set_len(*committed_len)?;
                        }
                        let mut buf = Vec::with_capacity(line.len() + 1);
                        buf.extend_from_slice(line.as_bytes());
                        buf.push(b'\n');
                        io::write_all("trials.append", file, &buf)?;
                        io::sync_data("trials.append", file)?;
                        *committed_len += buf.len() as u64;
                        Ok(())
                    }
                    // A shared-history log is never truncated; retries
                    // heal a short-written fragment into its own
                    // skippable line, as shared-mode appenders do.
                    LoadPolicy::Lenient => {
                        crate::coord::append_jsonl_line("trials.append", file, &line)
                    }
                })
                .map_err(|e| format!("append {}: {e}", trials_path(dir).display()))?;
            }
            lock_recover(&fresh).push((cell, rep, value));
            Ok(())
        };
        // The retry budget is spent: record the poison trial durably
        // and move on — the rest of the queue still deserves to run.
        let quarantine_trial = |cell: usize, rep: usize, e: String| {
            let flat = cell * repeats + rep;
            frlfi_obs::count("trial.quarantined", 1);
            frlfi_obs::warn!("quarantining trial {flat} (cell {cell}, repeat {rep}): {e}");
            if let Err(qe) = quarantine::append(
                dir,
                &QuarantineRecord {
                    kind: QuarantineKind::Trial,
                    trial: flat,
                    cell,
                    repeat: rep,
                    worker: format!("x{}", std::process::id()),
                    error: e,
                    ts_ms: crate::coord::now_ms(),
                },
            ) {
                frlfi_obs::warn!(
                    "{qe} (quarantine record lost; the degraded exit still reports the trial)"
                );
            }
            lock_recover(&poisoned).insert(flat);
            // An erroring worker may be about to die: its buffered
            // events describe the failure and must reach disk now.
            frlfi_obs::flush();
        };

        // Study eval tasks load the frozen artifact planes instead of
        // retraining: one restored context per worker thread, all built
        // up front so a plane/shape mismatch degrades at the task level
        // rather than failing trial by trial. Classic workers need none.
        let workers = threads.min(new_trials);
        let mut ctxs: Vec<Option<frlfi::experiments::study::StudyCtx>> = Vec::new();
        for _ in 0..workers {
            let Some((g, planes)) = &study else {
                ctxs.push(None);
                continue;
            };
            match g.context(planes) {
                Ok(ctx) => ctxs.push(Some(ctx)),
                Err(e) => {
                    let worker = format!("x{}", std::process::id());
                    quarantine_train_task(dir, g, 0, &worker, format!("restore eval context: {e}"));
                    let poisoned = undone_flats(&done, repeats);
                    return finalize(campaign, dir, cfg, &done, completed, 0, poisoned);
                }
            }
        }
        std::thread::scope(|scope| {
            for mut ctx in ctxs {
                let (cursor, pending, study) = (&cursor, &pending, &study);
                let (commit, quarantine_trial) = (&commit, &quarantine_trial);
                scope.spawn(move || {
                    // This worker's clean-training-prefix cache, for this
                    // run only (see `Campaign::run_trial`).
                    let mut prefix = GridPrefix::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(cell, rep)) = pending.get(i) else { break };
                        let flat = cell * repeats + rep;
                        let seed = campaign.trial_seed(flat);
                        // The trial span stays live across the commit so
                        // the io timer (and any child span) is parented
                        // to the trial in the causal tree.
                        let _trial = frlfi_obs::span_trial("trial", flat as u64);
                        let value = match (study, ctx.as_mut()) {
                            (Some((g, _)), Some(ctx)) => g.eval_cell(ctx, cell, seed),
                            _ => campaign.run_trial(cell, seed, &mut prefix),
                        };
                        match value {
                            Ok(value) => {
                                if let Err(e) = commit(cell, rep, seed, value) {
                                    quarantine_trial(cell, rep, e);
                                }
                            }
                            Err(e) => quarantine_trial(cell, rep, format!("trial failed: {e}")),
                        }
                        // Per-trial event flush once the span has closed:
                        // a killed worker's obs stream still covers every
                        // committed trial.
                        drop(_trial);
                        frlfi_obs::flush();
                    }
                });
            }
        });

        for (cell, rep, value) in
            fresh.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            if done[cell][rep].is_none() {
                completed += 1;
            }
            done[cell][rep] = Some(value);
        }
        quarantined = poisoned
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_iter()
            .collect();
    }

    finalize(campaign, dir, cfg, &done, completed, new_trials, quarantined)
}

/// Folds the completion map into the outcome; when every trial is
/// persisted, renders and publishes `summary.txt` — per-cell stats in
/// repeat order, exactly as the in-process sweep engine folds them.
///
/// When the queue drained but some trials were **quarantined**
/// (their I/O retries exhausted), publishes an explicitly marked
/// degraded summary instead and errors unless
/// [`RunnerConfig::allow_partial`] — graceful degradation, not
/// silence: the exit code says partial, the summary says partial,
/// and a later healthy `resume`/`worker` run reclaims the missing
/// trials (bitwise-identically) and replaces the summary with the
/// real one.
fn finalize(
    campaign: &Campaign,
    dir: &Path,
    cfg: &RunnerConfig,
    done: &[Vec<Option<f64>>],
    completed: usize,
    new_trials: usize,
    quarantined: Vec<usize>,
) -> Result<CampaignOutcome, String> {
    let total = campaign.total_trials();
    let (stats, table, wide_table) = if completed == total {
        let stats: Vec<CellStats> = done
            .iter()
            .map(|cell| {
                let values: Vec<f64> = cell.iter().map(|v| v.expect("campaign complete")).collect();
                aggregate_in_order(&values)
            })
            .collect();
        // Study campaigns render through the geometry's own figure
        // renderer on plain in-order means — the exact fold the
        // sequential drivers use — so summary.txt is byte-identical
        // to `experiments::fig4::run` etc. (The chunked-Welford
        // `CellStats` mean is not bit-identical to a plain mean, so
        // it stays informational in `outcome.stats`.)
        let table = match campaign.study() {
            Some(g) => {
                let means: Vec<f64> = done
                    .iter()
                    .map(|cell| {
                        let mut sum = 0.0;
                        for v in cell {
                            sum += v.expect("campaign complete");
                        }
                        sum / campaign.repeats as f64
                    })
                    .collect();
                g.render(&means)
            }
            None => render_table(campaign, &stats),
        };
        let wide_table = cfg.wide_summary.then(|| render_wide_table(campaign, &stats));
        let mut text = table.render();
        if let Some(wide) = &wide_table {
            text.push('\n');
            text.push_str(&wide.render());
        }
        write_atomic(dir, "summary.txt", &text)?;
        (Some(stats), Some(table), wide_table)
    } else if !quarantined.is_empty() {
        let text = render_degraded_summary(campaign, done, completed);
        write_atomic(dir, "summary.txt", &text)?;
        if !cfg.allow_partial {
            return Err(format!(
                "campaign degraded: {} of {total} trials missing after {} were quarantined \
                 (I/O retries exhausted — see quarantine.jsonl); summary.txt is marked \
                 DEGRADED. Re-run `campaign resume`/`campaign worker` on healthy I/O to \
                 reclaim them, or pass --allow-partial to accept partial results",
                total - completed,
                quarantined.len(),
            ));
        }
        (None, None, None)
    } else {
        (None, None, None)
    };

    Ok(CampaignOutcome {
        completed_trials: completed,
        total_trials: total,
        new_trials,
        stats,
        table,
        wide_table,
        quarantined,
    })
}

/// Renders the explicitly marked partial summary a degraded campaign
/// publishes. Deliberately a pure function of the scenario identity
/// and the completion map — no paths, timestamps, error strings or
/// worker ids — so a deterministic fault produces a byte-identical
/// degraded summary on every run (the bar the chaos torture harness
/// holds it to). The errors themselves live in `quarantine.jsonl`
/// and the warning log.
fn render_degraded_summary(
    campaign: &Campaign,
    done: &[Vec<Option<f64>>],
    completed: usize,
) -> String {
    let mut text = String::new();
    text.push_str("!! DEGRADED CAMPAIGN SUMMARY — PARTIAL RESULTS !!\n");
    text.push_str(&format!(
        "Campaign {} ({:?} scale): {completed}/{} trials completed.\n",
        campaign.scenario.name,
        campaign.scenario.scale,
        campaign.total_trials(),
    ));
    text.push_str(
        "Missing trials were quarantined after exhausting I/O retries\n\
         (quarantine.jsonl has details). They remain reclaimable: re-run\n\
         `campaign resume` or `campaign worker` on healthy I/O to complete\n\
         the campaign and replace this summary with the real one.\n\n\
         missing (cell, repeat):\n",
    );
    for (cell, cell_done) in done.iter().enumerate() {
        for (rep, slot) in cell_done.iter().enumerate() {
            if slot.is_none() {
                text.push_str(&format!("  ({cell}, {rep})\n"));
            }
        }
    }
    text
}

/// Flat indices of every not-yet-persisted trial — the dependents a
/// failed train task poisons.
fn undone_flats(done: &[Vec<Option<f64>>], repeats: usize) -> Vec<usize> {
    let mut flats = Vec::new();
    for (cell, cell_done) in done.iter().enumerate() {
        for (rep, slot) in cell_done.iter().enumerate() {
            if slot.is_none() {
                flats.push(cell * repeats + rep);
            }
        }
    }
    flats
}

/// Records a failed train task durably (kind = `train`) and warns.
/// The task's dependent evals are poisoned by the caller — the same
/// graceful-degradation policy as trial quarantine: the degraded
/// summary and exit code report the damage, and a later healthy run
/// retrains bitwise-identically and completes the campaign.
fn quarantine_train_task(
    dir: &Path,
    g: &frlfi::experiments::study::StudyGeometry,
    model: usize,
    worker: &str,
    error: String,
) {
    frlfi_obs::count("train.quarantined", 1);
    let label = g.models().get(model).map_or_else(|| "?".into(), |m| m.label());
    frlfi_obs::warn!("quarantining train task {model} ({label}): {error}");
    if let Err(qe) = quarantine::append(
        dir,
        &QuarantineRecord {
            kind: QuarantineKind::Train,
            trial: model,
            cell: model,
            repeat: 0,
            worker: worker.into(),
            error,
            ts_ms: crate::coord::now_ms(),
        },
    ) {
        frlfi_obs::warn!("{qe} (quarantine record lost; the degraded exit still reports the task)");
    }
    // An erroring worker may be about to die: its buffered events
    // describe the failure and must reach disk now.
    frlfi_obs::flush();
}

/// Every study model's decoded weight planes, in model order (outer:
/// model, inner: the model's per-agent planes).
type ModelPlanes = Vec<Vec<Vec<f32>>>;

/// Once-per-process cache of the decoded artifact planes, shared by
/// every shared-mode eval thread.
type PlanesCache = Mutex<Option<std::sync::Arc<ModelPlanes>>>;

/// The exclusive-mode train phase: ensures every model artifact of a
/// study campaign is published and decodable, training whatever is
/// missing. Returns the decoded weight planes in model order.
///
/// Reuse is digest-verified: a recorded artifact whose file fails
/// verification (torn by a kill, deleted, corrupted) is retrained —
/// bitwise-identically, training is a pure function of the geometry —
/// and republished. Errors carry the model index whose train task
/// failed, so the caller can quarantine it and poison its dependents.
fn ensure_artifacts(
    g: &frlfi::experiments::study::StudyGeometry,
    dir: &Path,
    worker: &str,
) -> Result<ModelPlanes, (usize, String)> {
    let mut tracker = crate::artifacts::ArtifactTracker::new(dir, g.models().len());
    tracker.refresh().map_err(|e| (0, e))?;
    let mut all = Vec::with_capacity(g.models().len());
    for (model, spec) in g.models().iter().enumerate() {
        if let Some(digest) = tracker.digest(model) {
            match crate::artifacts::load_planes(dir, model, digest) {
                Ok(planes) => {
                    frlfi_obs::count("artifact.reused", 1);
                    all.push(planes);
                    continue;
                }
                Err(e) => frlfi_obs::warn!(
                    "model {model} ({}): {e}; retraining (bitwise-identical — training is pure)",
                    spec.label()
                ),
            }
        }
        let planes = {
            let _train = frlfi_obs::span_trial("train_task", model as u64);
            spec.train().map_err(|e| (model, format!("train failed: {e}")))?
        };
        crate::artifacts::publish(dir, model, &planes, worker).map_err(|e| (model, e))?;
        frlfi_obs::count("artifact.published", 1);
        all.push(planes);
    }
    Ok(all)
}

/// The decoded artifact planes for shared-mode eval tasks, loaded
/// once per process and shared across its worker threads.
///
/// Every plane set is digest-verified against its publication record;
/// a torn artifact file falls back to in-process retraining (again
/// bitwise-identical) with a best-effort republish to heal the file
/// for other workers.
fn eval_planes(
    g: &frlfi::experiments::study::StudyGeometry,
    dir: &Path,
    cache: &PlanesCache,
    worker: &str,
) -> Result<std::sync::Arc<ModelPlanes>, String> {
    let mut guard = lock_recover(cache);
    if let Some(planes) = guard.as_ref() {
        return Ok(std::sync::Arc::clone(planes));
    }
    let mut tracker = crate::artifacts::ArtifactTracker::new(dir, g.models().len());
    tracker.refresh()?;
    let mut all = Vec::with_capacity(g.models().len());
    for (model, spec) in g.models().iter().enumerate() {
        let Some(digest) = tracker.digest(model) else {
            return Err(format!(
                "model {model} ({}) has no publication record — eval tasks gate on artifacts",
                spec.label()
            ));
        };
        match crate::artifacts::load_planes(dir, model, digest) {
            Ok(planes) => {
                frlfi_obs::count("artifact.reused", 1);
                all.push(planes);
            }
            Err(e) => {
                frlfi_obs::warn!(
                    "model {model} ({}): {e}; retraining in-process (bitwise-identical — \
                     training is pure)",
                    spec.label()
                );
                let planes = spec.train().map_err(|te| format!("retrain model {model}: {te}"))?;
                if let Err(pe) = crate::artifacts::publish(dir, model, &planes, worker) {
                    frlfi_obs::warn!(
                        "republish model {model}: {pe} (continuing with in-memory weights)"
                    );
                }
                all.push(planes);
            }
        }
    }
    let planes = std::sync::Arc::new(all);
    *guard = Some(std::sync::Arc::clone(&planes));
    Ok(planes)
}

/// The shared-queue run loop: worker threads acquire `(cell, repeat)`
/// trials through the [`crate::coord`] lease protocol instead of an
/// in-memory cursor, so any number of processes sharing the campaign
/// directory cooperate on one campaign. With no interrupt budget the
/// call blocks until the whole campaign completes — trials claimed by
/// other live workers are waited out (and reaped if their worker
/// dies), then whoever observes completion publishes `summary.txt`.
fn run_shared(
    campaign: &Campaign,
    dir: &Path,
    cfg: &RunnerConfig,
    coord_cfg: &CoordConfig,
) -> Result<CampaignOutcome, String> {
    if cfg.wide_summary {
        // The published summary must be a pure function of the trial
        // log — with several finalizer processes carrying different
        // flags, a per-call rendering option would make summary.txt
        // depend on which process renames last.
        return Err("--wide is an exclusive-mode rendering option; render the spread table \
                    after completion with `campaign resume <dir> --wide`"
            .into());
    }
    let repeats = campaign.repeats;
    let total = campaign.total_trials();
    let coordinator = Coordinator::new(dir, coord_cfg.clone());

    // One shared append handle; every record goes through the
    // [`crate::coord::append_jsonl_line`] durability protocol (heal a
    // dead writer's torn tail into its own line, single `O_APPEND`
    // write so concurrent processes interleave line-atomically,
    // fsync) under the retry policy. A retried short write leaves a
    // healed garbage interior line behind — skippable by every
    // shared-log reader, invisible in the statistics.
    let file = io::with_retry("trials.open", || io::open_append("trials.open", &trials_path(dir)))
        .map_err(|e| format!("open {}: {e}", trials_path(dir).display()))?;
    let sink = Mutex::new(file);
    let commit = |record: &TrialRecord| -> Result<(), String> {
        let _io = frlfi_obs::timed("io");
        let line = json::render(&record.to_value());
        let mut f = lock_recover(&sink);
        io::with_retry("trials.append", || {
            crate::coord::append_jsonl_line("trials.append", &mut f, &line)
        })
        .map_err(|e| format!("append trial record: {e}"))
    };

    let threads = resolve_threads(cfg.threads);
    let tracker = Mutex::new(TrialTracker::new(dir, total));
    let budget = AtomicUsize::new(cfg.max_new_trials.unwrap_or(usize::MAX));
    let new_trials = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let fail = |e: String| {
        failed.store(true, Ordering::Relaxed);
        lock_recover(&errors).push(e);
    };
    // Trials this process gave up on: quarantined after their retry
    // budget exhausted. Excluded from this process's pending view
    // (other, healthier workers may still reclaim them).
    let poisoned: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
    // Study (task-DAG) state. Claim ids are tasks, not trials: ids
    // `0..n_models` are train tasks, `n_models + flat` are eval
    // trials (`n_models` is 0 for classic campaigns, so classic claim
    // logs are untouched). Eval tasks only become claimable once
    // every model's artifact record has landed.
    let n_models = campaign.n_models();
    let artifact_tracker = Mutex::new(crate::artifacts::ArtifactTracker::new(dir, n_models));
    // Train tasks this process gave up on (train or publish failed).
    let train_poisoned: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
    // Decoded artifact planes, loaded once per process and shared by
    // every eval thread.
    let planes_cache: PlanesCache = Mutex::new(None);
    let quarantine_trial = |trial: usize, e: String| {
        let (cell, rep) = (trial / repeats, trial % repeats);
        frlfi_obs::count("trial.quarantined", 1);
        frlfi_obs::warn!("quarantining trial {trial} (cell {cell}, repeat {rep}): {e}");
        if let Err(qe) = quarantine::append(
            dir,
            &QuarantineRecord {
                kind: QuarantineKind::Trial,
                trial,
                cell,
                repeat: rep,
                worker: coord_cfg.worker_id.clone(),
                error: e,
                ts_ms: crate::coord::now_ms(),
            },
        ) {
            frlfi_obs::warn!(
                "{qe} (quarantine record lost; the degraded exit still reports the trial)"
            );
        }
        lock_recover(&poisoned).insert(trial);
        // An erroring worker may be about to die: its buffered events
        // describe the failure and must reach disk now.
        frlfi_obs::flush();
    };

    std::thread::scope(|scope| {
        for thread_idx in 0..threads.min(total.max(1)) {
            let coordinator = &coordinator;
            let tracker = &tracker;
            let budget = &budget;
            let new_trials = &new_trials;
            let failed = &failed;
            let fail = &fail;
            let commit = &commit;
            let poisoned = &poisoned;
            let quarantine_trial = &quarantine_trial;
            let artifact_tracker = &artifact_tracker;
            let train_poisoned = &train_poisoned;
            let planes_cache = &planes_cache;
            scope.spawn(move || {
                let study = campaign.study();
                let mut study_ctx: Option<frlfi::experiments::study::StudyCtx> = None;
                // This worker's clean-training-prefix cache, for this run
                // only (see `Campaign::run_trial`).
                let mut prefix = GridPrefix::default();
                // Stagger each claimer's scan start so workers spread
                // over the queue instead of racing for trial 0 (any
                // claim order is correct; this only reduces contention).
                let offset = fxhash(coord_cfg.worker_id.as_bytes()) as usize + thread_idx * 7919;
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    // Incremental completion view: each poll folds only
                    // the trial-log tail appended since the last one.
                    let pending: Vec<usize> = {
                        let mut t = lock_recover(tracker);
                        if let Err(e) = t.refresh(campaign) {
                            fail(e);
                            break;
                        }
                        if t.completed == total {
                            break; // campaign complete
                        }
                        let poisoned = lock_recover(poisoned);
                        (0..total)
                            .filter(|&i| !t.done[i] && !poisoned.contains(&i))
                            .map(|i| i + n_models)
                            .collect()
                    };
                    // Study train phase: until every artifact record
                    // has landed, the only claimable tasks are the
                    // missing models' train tasks — the artifact gate
                    // that keeps eval tasks unclaimable.
                    if let Some(g) = study {
                        let missing: Vec<usize> = {
                            let mut a = lock_recover(artifact_tracker);
                            if let Err(e) = a.refresh() {
                                fail(e);
                                break;
                            }
                            a.missing()
                        };
                        if !missing.is_empty() {
                            let claimable: Vec<usize> = {
                                let tp = lock_recover(train_poisoned);
                                missing.iter().copied().filter(|m| !tp.contains(m)).collect()
                            };
                            if claimable.is_empty() {
                                // Every missing artifact's train task is
                                // poisoned here: its dependent evals can
                                // never unblock in this process. Degrade
                                // deterministically; a healthier worker
                                // may still publish the artifacts.
                                break;
                            }
                            match coordinator.claim_next(&claimable, offset) {
                                Err(e) => {
                                    fail(e);
                                    return;
                                }
                                Ok(Some(model)) => {
                                    // Train tasks never consume the
                                    // interrupt budget: `max_new_trials`
                                    // counts eval trials only.
                                    let outcome = g.models()[model]
                                        .train()
                                        .map_err(|e| format!("train failed: {e}"))
                                        .and_then(|planes| {
                                            crate::artifacts::publish(
                                                dir,
                                                model,
                                                &planes,
                                                &coord_cfg.worker_id,
                                            )
                                            .map(|_| ())
                                        });
                                    match outcome {
                                        Ok(()) => frlfi_obs::count("artifact.published", 1),
                                        Err(e) => {
                                            quarantine_train_task(
                                                dir,
                                                g,
                                                model,
                                                &coord_cfg.worker_id,
                                                e,
                                            );
                                            lock_recover(train_poisoned).insert(model);
                                        }
                                    }
                                    coordinator.complete(model);
                                    frlfi_obs::flush();
                                }
                                Ok(None) => {
                                    if cfg.max_new_trials.is_some() {
                                        // Budgeted calls never wait on
                                        // other workers' train leases.
                                        break;
                                    }
                                    std::thread::sleep(std::time::Duration::from_millis(
                                        coord_cfg.poll_ms,
                                    ));
                                }
                            }
                            continue;
                        }
                    }
                    if pending.is_empty() {
                        // Every remaining trial is quarantined by this
                        // process: no further progress is possible
                        // here. Finalize reports the degraded outcome;
                        // a healthier worker can still reclaim them.
                        break;
                    }
                    // Reserve one unit of the interrupt budget before
                    // claiming (returned if no claim lands), so a
                    // budgeted call executes exactly `max_new_trials`
                    // new trials however many threads race here.
                    if !reserve(budget) {
                        break;
                    }
                    let claimed = match coordinator.claim_next(&pending, offset) {
                        Ok(c) => c,
                        Err(e) => {
                            fail(e);
                            return;
                        }
                    };
                    let Some(task) = claimed else {
                        budget.fetch_add(1, Ordering::Relaxed);
                        if cfg.max_new_trials.is_some() {
                            // Budgeted calls never wait on other
                            // workers' leases.
                            break;
                        }
                        // Everything is claimed by live workers: wait
                        // for completions or lease expiries.
                        std::thread::sleep(std::time::Duration::from_millis(coord_cfg.poll_ms));
                        continue;
                    };
                    let trial = task - n_models;
                    let (cell, rep) = (trial / repeats, trial % repeats);
                    // Study eval tasks run against a per-thread context
                    // restored from the published artifacts, built on
                    // this thread's first eval (the gate above already
                    // opened, so every record is in place).
                    if let Some(g) = study {
                        if study_ctx.is_none() {
                            let built = eval_planes(g, dir, planes_cache, &coord_cfg.worker_id)
                                .and_then(|planes| {
                                    g.context(&planes)
                                        .map_err(|e| format!("restore eval context: {e}"))
                                });
                            match built {
                                Ok(ctx) => study_ctx = Some(ctx),
                                Err(e) => {
                                    fail(e);
                                    coordinator.complete(task);
                                    return;
                                }
                            }
                        }
                    }
                    let seed = campaign.trial_seed(trial);
                    // The trial span stays live across the commit so
                    // the io timer and any retry/quarantine events
                    // are parented to the trial in the causal tree.
                    let _trial = frlfi_obs::span_trial("trial", trial as u64);
                    let value = match (study, study_ctx.as_mut()) {
                        (Some(g), Some(ctx)) => g.eval_cell(ctx, cell, seed),
                        _ => campaign.run_trial(cell, seed, &mut prefix),
                    };
                    let value = match value {
                        Ok(v) => v,
                        Err(e) => {
                            // Deterministic trial failure: quarantine
                            // and release the lease. This process skips
                            // the trial from now on; a worker running a
                            // fixed build may still reclaim it.
                            quarantine_trial(trial, format!("trial failed: {e}"));
                            coordinator.complete(task);
                            continue;
                        }
                    };
                    let record = TrialRecord { cell, repeat: rep, seed, value };
                    if let Err(e) = commit(&record) {
                        // Retry budget spent: quarantine the trial and
                        // keep draining the queue instead of dying —
                        // the lease is released (its record is what
                        // the trial log is missing, so another worker
                        // reclaiming it is exactly what we want).
                        quarantine_trial(trial, e);
                        coordinator.complete(task);
                        continue;
                    }
                    coordinator.complete(task);
                    new_trials.fetch_add(1, Ordering::Relaxed);
                    // Per-trial event flush once the span has closed: a
                    // SIGKILLed worker's obs stream still covers its
                    // durably committed trials.
                    drop(_trial);
                    frlfi_obs::flush();
                }
            });
        }
    });
    drop(coordinator); // stop the heartbeat before reporting

    if failed.load(Ordering::Relaxed) {
        return Err(lock_recover(&errors).join("; "));
    }

    // Re-read the log for the cross-process view: trials other workers
    // committed count toward completion (and toward publishing the
    // summary) even though this process never ran them.
    let (records, _) = load_records(dir, LoadPolicy::Lenient)?;
    let done = fold_records(campaign, records)?;
    let completed = done.iter().flatten().filter(|v| v.is_some()).count();
    let mut quarantined: Vec<usize> = poisoned
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        // Another worker may have committed a trial we quarantined;
        // the completed record overrides the advisory quarantine.
        .filter(|&t| done[t / repeats][t % repeats].is_none())
        .collect();
    let train_poisoned =
        train_poisoned.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    if !train_poisoned.is_empty() && completed < total {
        // A quarantined train task deterministically poisons every
        // dependent eval trial that never got its record — they all
        // gate on the artifact that failed to land.
        quarantined = undone_flats(&done, repeats);
    }
    finalize(campaign, dir, cfg, &done, completed, new_trials.load(Ordering::Relaxed), quarantined)
}

/// Atomically takes one unit of the interrupt budget; `false` means
/// the budget is exhausted.
fn reserve(budget: &AtomicUsize) -> bool {
    budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1)).is_ok()
}

/// A tiny FNV-1a over bytes — worker-id scan staggering only (no
/// correctness weight whatsoever).
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders the wide per-cell spread table: one row per campaign cell
/// (row-major in the scenario's grid), with the PR 2 `CellStats`
/// spread columns — mean, min, max and the 95% confidence-interval
/// half-width of the mean — that the standard means grid omits.
pub fn render_wide_table(campaign: &Campaign, stats: &[CellStats]) -> Table {
    let title = format!(
        "Campaign {} ({:?} scale): per-cell spread over {} repeats",
        campaign.scenario.name, campaign.scenario.scale, campaign.repeats,
    );
    let mut table =
        Table::new(title, "cell", vec!["mean".into(), "min".into(), "max".into(), "ci95".into()])
            .with_precision(2);
    let labels: Vec<String> = match &campaign.grid {
        CellGrid::BerByEpisode { bers, episodes } => bers
            .iter()
            .flat_map(|&b| {
                episodes
                    .iter()
                    .map(move |&e| format!("ber {} @ ep{e}", frlfi::experiments::ber_label(b)))
            })
            .collect(),
        CellGrid::FleetByBer { sizes, bers } => sizes
            .iter()
            .flat_map(|&n| bers.iter().map(move |&b| format!("n={n} @ ber {b}")))
            .collect(),
        CellGrid::Study { rows, cols } => {
            rows.iter().flat_map(|r| cols.iter().map(move |c| format!("{r} @ {c}"))).collect()
        }
    };
    for (label, s) in labels.into_iter().zip(stats.iter()) {
        table.push_row(label, vec![s.mean, s.min, s.max, s.ci95_half_width()]);
    }
    table
}

/// Renders campaign statistics in the scenario's grid layout.
pub fn render_table(campaign: &Campaign, stats: &[CellStats]) -> Table {
    let title = format!(
        "Campaign {} ({:?} scale): {}",
        campaign.scenario.name,
        campaign.scenario.scale,
        match campaign.trials {
            crate::spec::Trials::Grid(_) => "success rate (%)",
            crate::spec::Trials::Drone(_) => "flight distance (m)",
            crate::spec::Trials::Study(_) => "study metric",
        }
    );
    match &campaign.grid {
        CellGrid::BerByEpisode { bers, episodes } => {
            frlfi::experiments::harness::heatmap_table(&title, bers, episodes, stats, 1)
        }
        CellGrid::FleetByBer { sizes, bers } => {
            let mut table =
                Table::new(title, "fleet", bers.iter().map(|b| format!("ber {b}")).collect());
            for (si, &n) in sizes.iter().enumerate() {
                let row: Vec<f64> =
                    (0..bers.len()).map(|bi| stats[si * bers.len() + bi].mean).collect();
                table.push_row(format!("n={n}"), row);
            }
            table
        }
        // The byte-exact figure path for studies is `finalize`'s
        // `StudyGeometry::render` over plain in-order means; from bare
        // stats the same layout renders over the stats means.
        CellGrid::Study { rows, cols } => match campaign.study() {
            Some(g) => g.render(&stats.iter().map(|s| s.mean).collect::<Vec<f64>>()),
            None => {
                let mut table = Table::new(title, "row", cols.clone());
                for (ri, key) in rows.iter().enumerate() {
                    let row: Vec<f64> =
                        (0..cols.len()).map(|ci| stats[ri * cols.len() + ci].mean).collect();
                    table.push_row(key.clone(), row);
                }
                table
            }
        },
    }
}
