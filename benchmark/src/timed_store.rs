//! `TimedStore`: an [`ArtifactStore`] decorator that makes store time
//! visible from outside `Session`.
//!
//! `Session::serve` calls its attached store from the inside, so the only
//! way to see those calls from the harness is to hand the session a store
//! that reports them. Every `load` / `store` / `contains` is forwarded to
//! the wrapped store inside a [`trace`] span carrying the payload byte
//! count; the spans nest under the harness's `core.session_serve` span.
//! With tracing off the call is forwarded and nothing else happens — no
//! clock read, no `stats()` call.

use std::cell::RefCell;

use dmc_core::{Artifact, ArtifactStore, StageId, StoreStats};
use dmc_ir::Fingerprint;

use crate::trace;

thread_local! {
    /// Artifacts that crossed the store boundary while tracing was on, for
    /// the encode/decode probe. `Arc` clones: the payloads are shared.
    static SEEN: RefCell<Vec<(StageId, Artifact)>> = const { RefCell::new(Vec::new()) };
}

/// Takes the artifacts recorded since the last call.
pub fn take_seen() -> Vec<(StageId, Artifact)> {
    SEEN.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

fn remember(stage: StageId, artifact: &Artifact) {
    SEEN.with(|s| s.borrow_mut().push((stage, artifact.clone())));
}

/// The decorator. See the [module docs](self).
#[derive(Debug)]
pub struct TimedStore<S: ArtifactStore> {
    inner: S,
}

impl<S: ArtifactStore> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        TimedStore { inner }
    }
}

impl<S: ArtifactStore> ArtifactStore for TimedStore<S> {
    fn load(&mut self, stage: StageId, key: Fingerprint) -> Option<Artifact> {
        if !trace::enabled() {
            return self.inner.load(stage, key);
        }
        let before = self.inner.stats().bytes_read;
        let loaded = trace::span_counted("store.load", || {
            let loaded = self.inner.load(stage, key);
            (loaded, self.inner.stats().bytes_read - before)
        });
        if let Some(artifact) = &loaded {
            remember(stage, artifact);
        }
        loaded
    }

    fn contains(&mut self, stage: StageId, key: Fingerprint) -> bool {
        trace::span("store.contains", || self.inner.contains(stage, key))
    }

    fn store(&mut self, stage: StageId, key: Fingerprint, artifact: &Artifact) {
        if !trace::enabled() {
            return self.inner.store(stage, key, artifact);
        }
        let before = self.inner.stats().bytes_written;
        trace::span_counted("store.store", || {
            self.inner.store(stage, key, artifact);
            ((), self.inner.stats().bytes_written - before)
        });
        remember(stage, artifact);
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
