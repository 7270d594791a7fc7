//! The inputs of a run: the served model, the frame pools the workloads
//! draw from, the draw sequences, and the reference verdicts every
//! answer from the server is checked against.

use crate::harness::Workload;
use browser_engine::UserAgent;
use fingerprint::{
    decode_submission_view, encode_submission, submission_cache_key, FeatureSet, Submission,
};
use polygraph_core::{
    Assessment, Detector, PolygraphError, TrainConfig, TrainedModel, TrainingSet,
};
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{Verdict, VerdictStatus};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use traffic::TrafficConfig;

/// Sessions in the served model's training window. The model is fitted
/// on the paper's fixed training world; the workload seed varies only
/// the traffic, the way a deployed model meets new logins.
pub const TRAINING_SESSIONS: usize = 20_000;
/// Verdict cache shape of the served config.
pub const CACHE_SHARDS: usize = 8;
pub const CACHE_CAPACITY: usize = 8_192;
/// Sessions in the natural pool: their coarse fingerprints collapse to a
/// few hundred cache keys, the repetition the paper's deployment sees.
const NATURAL_SESSIONS: usize = 16_384;
/// Distinct keys of the flood pools: 32x the cache for `flood-unique`,
/// half of it for `flood-repeat`.
const UNIQUE_KEYS: usize = 1 << 18;
const REPEAT_KEYS: usize = 1 << 12;
/// Generated sessions the jittered pools are derived from.
const JITTER_BASE: usize = 8_192;

/// Encoded frames, stored back to back as they go on the wire (u16-LE
/// length prefix plus submission payload).
pub struct FramePool {
    wire: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

impl FramePool {
    fn from_submissions(subs: impl Iterator<Item = Submission>) -> Result<Self, String> {
        let mut pool = FramePool {
            wire: Vec::new(),
            spans: Vec::new(),
        };
        for sub in subs {
            let payload = encode_submission(&sub).map_err(|e| format!("encode: {e}"))?;
            let len = u16::try_from(payload.len()).map_err(|_| "frame too long")?;
            let start = pool.wire.len();
            pool.wire.extend_from_slice(&len.to_le_bytes());
            pool.wire.extend_from_slice(&payload);
            pool.spans.push((start, pool.wire.len()));
        }
        Ok(pool)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Frame `i` as written to the socket, length prefix included.
    pub fn wire(&self, i: usize) -> &[u8] {
        let (start, end) = self.spans[i];
        &self.wire[start..end]
    }

    /// Frame `i` without its length prefix: what the server decodes.
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.wire(i)[2..]
    }
}

/// Fits the served model on the paper's training world.
pub fn fit_model() -> Result<TrainedModel, String> {
    let feature_set = FeatureSet::table8();
    let config = TrafficConfig::paper_training().with_sessions(TRAINING_SESSIONS);
    let data = traffic::generate(&feature_set, &config);
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows, uas).map_err(|e| e.to_string())?;
    TrainedModel::fit(feature_set, &training, TrainConfig::default()).map_err(|e| e.to_string())
}

/// The frame pool a workload draws from, generated from `seed`.
pub fn pool_for(workload: Workload, seed: u64) -> Result<FramePool, String> {
    match workload {
        Workload::LoginPaced | Workload::ModelChurn => natural_pool(seed),
        Workload::FloodUnique => jittered_pool(seed, UNIQUE_KEYS),
        Workload::FloodRepeat => jittered_pool(seed, REPEAT_KEYS),
    }
}

fn generated_sessions(seed: u64, sessions: usize) -> Vec<traffic::session::Session> {
    let config = TrafficConfig::paper_training()
        .with_sessions(sessions)
        .with_seed(seed);
    traffic::generate(&FeatureSet::table8(), &config).sessions
}

fn natural_pool(seed: u64) -> Result<FramePool, String> {
    FramePool::from_submissions(
        generated_sessions(seed, NATURAL_SESSIONS)
            .into_iter()
            .map(|s| Submission {
                session_id: s.session_id,
                user_agent: s.claimed.to_ua_string(),
                values: s.values,
            }),
    )
}

/// A long-tail pool: entry `i` is generated session `i mod JITTER_BASE`
/// with the bytes of `i` added to its last three feature values, so
/// every entry is its own cache key while the cluster geometry stays
/// recognisable (the jitter `bench_fleet` uses, widened to 24 bits).
fn jittered_pool(seed: u64, entries: usize) -> Result<FramePool, String> {
    let base = generated_sessions(seed, JITTER_BASE);
    FramePool::from_submissions((0..entries).map(|i| {
        let s = &base[i % base.len()];
        let mut values = s.values.clone();
        let n = values.len();
        for (k, byte) in (0..3).zip((i as u32).to_le_bytes()) {
            if let Some(v) = n.checked_sub(1 + k).and_then(|at| values.get_mut(at)) {
                *v = v.wrapping_add(u32::from(byte));
            }
        }
        Submission {
            session_id: s.session_id,
            user_agent: s.claimed.to_ua_string(),
            values,
        }
    }))
}

/// `n` uniform draws over a pool of `pool_len` frames.
pub fn uniform_sequence(seed: u64, pool_len: usize, n: usize) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..pool_len) as u32).collect()
}

/// Decodes a submission payload into the detector's input, as the
/// server does: feature row plus parsed claimed user agent.
pub fn decode_session(payload: &[u8]) -> Option<(Vec<f64>, UserAgent)> {
    let view = decode_submission_view(payload).ok()?;
    let claimed = view.user_agent().parse().ok()?;
    Some((view.values_u32().map(f64::from).collect(), claimed))
}

/// The wire verdict the server owes for one assessment result.
pub fn expected_verdict(result: &Result<Assessment, PolygraphError>) -> Verdict {
    match result {
        Ok(a) => Verdict {
            status: VerdictStatus::Assessed,
            flagged: a.flagged,
            risk_factor: a.risk_factor.min(u32::from(u8::MAX)) as u8,
            predicted_cluster: a.predicted_cluster.min(usize::from(u8::MAX)) as u8,
            expected_cluster: a
                .expected_cluster
                .map(|c| c.min(usize::from(u8::MAX)) as u8),
        },
        Err(_) => Verdict::error(VerdictStatus::SchemaMismatch),
    }
}

/// Encoded reference verdicts for every pool frame, from an unquantized
/// `Detector` over `model` fed the payload bytes the server reads.
/// Frames that decode to the same input (they differ only in session
/// id, which no verdict depends on) are assessed once.
pub fn reference_verdicts(model: &TrainedModel, pool: &FramePool) -> Vec<[u8; VERDICT_LEN]> {
    let detector = Detector::new(model.clone());
    let malformed = Verdict::error(VerdictStatus::Malformed).encode();
    // Per cache key: the first frame seen with it, and its verdict slot.
    let mut seen: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut verdicts: Vec<[u8; VERDICT_LEN]> = Vec::new();
    let mut pending = Vec::new();
    let mut slot_of = Vec::with_capacity(pool.len());
    let flush = |pending: &mut Vec<(Vec<f64>, UserAgent)>,
                 verdicts: &mut Vec<[u8; VERDICT_LEN]>| {
        verdicts.extend(
            detector
                .assess_many(pending)
                .iter()
                .map(|r| expected_verdict(r).encode()),
        );
        pending.clear();
    };
    for i in 0..pool.len() {
        let payload = pool.payload(i);
        let key = submission_cache_key(payload);
        let shared = key
            .and_then(|k| seen.get(&k))
            .filter(|&&(first, _)| same_input(pool.payload(first), payload));
        let slot = match shared {
            Some(&(_, slot)) => Some(slot),
            None => decode_session(payload).map(|session| {
                pending.push(session);
                let slot = verdicts.len() + pending.len() - 1;
                if let Some(k) = key {
                    seen.entry(k).or_insert((i, slot));
                }
                slot
            }),
        };
        slot_of.push(slot);
        if pending.len() == 4096 {
            flush(&mut pending, &mut verdicts);
        }
    }
    flush(&mut pending, &mut verdicts);
    slot_of
        .into_iter()
        .map(|slot| slot.map_or(malformed, |s| verdicts[s]))
        .collect()
}

/// Whether two payloads carry the same detector input.
fn same_input(a: &[u8], b: &[u8]) -> bool {
    match (decode_submission_view(a), decode_submission_view(b)) {
        (Ok(x), Ok(y)) => x.user_agent() == y.user_agent() && x.values_u32().eq(y.values_u32()),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_keys(pool: &FramePool) -> usize {
        let mut keys: Vec<u64> = (0..pool.len())
            .map(|i| fingerprint::submission_cache_key(pool.payload(i)).unwrap())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    #[test]
    fn pools_are_a_function_of_the_seed() {
        let a = jittered_pool(9, 64).unwrap();
        let b = jittered_pool(9, 64).unwrap();
        let c = jittered_pool(10, 64).unwrap();
        assert_eq!(a.wire, b.wire);
        assert_ne!(a.wire, c.wire);
        assert_eq!(uniform_sequence(1, 50, 20), uniform_sequence(1, 50, 20));
    }

    #[test]
    fn jitter_gives_every_entry_its_own_key_and_keeps_frames_decodable() {
        let pool = jittered_pool(3, 2 * JITTER_BASE).unwrap();
        assert_eq!(distinct_keys(&pool), pool.len());
        assert!((0..pool.len()).all(|i| decode_session(pool.payload(i)).is_some()));
        let wire = pool.wire(5);
        assert_eq!(
            usize::from(u16::from_le_bytes([wire[0], wire[1]])),
            wire.len() - 2
        );
    }

    #[test]
    fn natural_keys_repeat_heavily() {
        let pool = natural_pool(3).unwrap();
        assert!(distinct_keys(&pool) * 10 < pool.len());
    }
}
