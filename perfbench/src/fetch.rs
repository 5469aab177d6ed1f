//! The traced run's timing `FetchSource` wrapper.

use crate::trace::{Span, Tracer};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use wiclean::revstore::{CrawlStats, FetchError, FetchSource, PageHistory};
use wiclean::types::EntityId;

/// Wraps a source and records a `revstore.fetch` span around every
/// `fetch_history` call, parented to whichever benchmark call is running.
///
/// `history_version` and `crawl_stats` forward to the wrapped source:
/// `ActionCache` keys its entries on `history_version`, and `ShardedStore`
/// overrides it, so falling back to the trait default would change cache
/// behaviour and measure a different program.
pub struct TimedFetch<'a> {
    inner: &'a dyn FetchSource,
    tracer: &'a Tracer,
    parent: AtomicU32,
}

impl<'a> TimedFetch<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a dyn FetchSource, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            parent: AtomicU32::new(0),
        }
    }

    /// Sets the span that later fetches are children of.
    pub fn set_parent(&self, id: u32) {
        self.parent.store(id, Ordering::Relaxed);
    }
}

impl FetchSource for TimedFetch<'_> {
    fn fetch_history(&self, entity: EntityId) -> Result<Option<Cow<'_, PageHistory>>, FetchError> {
        let id = self.tracer.reserve();
        let start_ns = self.tracer.now_ns();
        let out = self.inner.fetch_history(entity);
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            id,
            parent: self.parent.load(Ordering::Relaxed),
            name: "revstore.fetch",
            group: u64::from(entity.as_u32()),
            start_ns,
            end_ns,
        });
        out
    }

    fn crawl_stats(&self) -> CrawlStats {
        self.inner.crawl_stats()
    }

    fn history_version(&self, entity: EntityId) -> u64 {
        self.inner.history_version(entity)
    }
}
