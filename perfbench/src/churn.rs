//! The retrain cycle: feed served frames into a `DriftStream` reservoir,
//! refit the serving model on the reservoir with `refit_streaming`, and
//! publish the candidate to the live server.

use crate::world::decode_session;
use polygraph_core::{Detector, DriftStream, TrainedModel};
use polygraph_ml::ThreadPool;
use polygraph_service::RiskServerHandle;
use std::time::Instant;

/// Sessions the reservoir keeps, and frames fed into it per cycle: the
/// reservoir is full from the eighth cycle on. An open loop serves a
/// cycle's frames in 0.41 s, inside the 0.5 s retrain period.
const RESERVOIR: usize = 16_384;
pub const CYCLE_FRAMES: usize = 2_048;
/// Mini-batch epochs per streaming refit.
const REFIT_EPOCHS: usize = 4;

/// Per-cycle timings, one entry per completed cycle.
#[derive(Debug, Default)]
pub struct RetrainTimes {
    /// `refit_streaming` start to `publish_model` return.
    pub retrain_ms: Vec<f64>,
    pub refit_ms: Vec<f64>,
    pub publish_us: Vec<f64>,
    /// `Detector::quantize` of the candidate, timed apart from the cycle.
    pub quantize_ms: Vec<f64>,
    /// Mean `DriftStream::ingest` time per session.
    pub ingest_ns: Vec<f64>,
}

/// The retrain side of a run: the model being served and the reservoir
/// sampling the traffic it serves.
pub struct Retrainer {
    model: TrainedModel,
    stream: DriftStream,
    pool: ThreadPool,
    pub times: RetrainTimes,
}

impl Retrainer {
    pub fn new(model: TrainedModel, seed: u64) -> Result<Self, String> {
        let width = model.feature_set().len();
        Ok(Self {
            model,
            stream: DriftStream::new(RESERVOIR, width, seed).map_err(|e| e.to_string())?,
            // One thread: the load generator and the server hold the
            // rest of a two-core budget.
            pool: ThreadPool::serial(),
            times: RetrainTimes::default(),
        })
    }

    /// One cycle over the given served payloads. Returns the published
    /// model.
    pub fn cycle<'a>(
        &mut self,
        server: &RiskServerHandle,
        payloads: impl Iterator<Item = &'a [u8]>,
    ) -> Result<TrainedModel, String> {
        let sessions: Vec<_> = payloads.filter_map(decode_session).collect();
        let t = Instant::now();
        for (values, claimed) in &sessions {
            self.stream
                .ingest(&self.model, values, *claimed)
                .map_err(|e| format!("ingest: {e}"))?;
        }
        if !sessions.is_empty() {
            self.times
                .ingest_ns
                .push(t.elapsed().as_nanos() as f64 / sessions.len() as f64);
        }
        let window = self
            .stream
            .training_window()
            .map_err(|e| format!("window: {e}"))?;

        let t0 = Instant::now();
        let candidate = self
            .model
            .refit_streaming(&window, REFIT_EPOCHS, &self.pool)
            .map_err(|e| format!("refit: {e}"))?;
        let refit = t0.elapsed();
        let published = candidate.clone();
        let t1 = Instant::now();
        server.publish_model(published);
        let publish = t1.elapsed();
        self.times
            .retrain_ms
            .push((refit + publish).as_secs_f64() * 1e3);
        self.times.refit_ms.push(refit.as_secs_f64() * 1e3);
        self.times.publish_us.push(publish.as_secs_f64() * 1e6);

        let mut detector = Detector::new(candidate.clone());
        let tq = Instant::now();
        detector.quantize().map_err(|e| format!("quantize: {e}"))?;
        self.times
            .quantize_ms
            .push(tq.elapsed().as_secs_f64() * 1e3);

        self.model = candidate.clone();
        Ok(candidate)
    }
}
