//! Exact hit/miss accounting of the process-global whole-list render cache.
//!
//! The assertion below counts misses on a cache every render in the process
//! shares, so it runs in a test binary of its own: no sibling test can
//! probe the cache between the two reads of its counters.

use adreno_sim::geom::Rect;
use adreno_sim::memo::{render_cache_stats, render_cached, reset_render_caches};
use adreno_sim::model::GpuModel;
use adreno_sim::scene::DrawList;

fn sample_list(glyph: char) -> DrawList {
    let mut dl = DrawList::new(512, 512);
    dl.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
    dl.layer("popup").glyph(glyph, Rect::from_xywh(100, 100, 90, 110), 8);
    dl
}

#[test]
fn stats_count_hits_and_misses() {
    reset_render_caches();
    let params = GpuModel::Adreno650.params();
    let dl = sample_list('q');
    let before = render_cache_stats();
    let _ = render_cached(&dl, &params);
    let _ = render_cached(&dl, &params);
    let after = render_cache_stats();
    assert_eq!(after.misses - before.misses, 1);
    assert!(after.hits > before.hits);
    assert!(after.hit_rate() > 0.0);
}
