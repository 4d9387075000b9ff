//! Per-window draw-list builders.
//!
//! Android renders each window (surface) independently and only when its
//! content is damaged. That per-window damage model is what gives the attack
//! its three distinct counter changes per key press (Fig 3):
//!
//! 1. key down   → the **keyboard window** redraws with the popup;
//! 2. key up     → the **app window** redraws with the text echo;
//! 3. popup hide → the keyboard window redraws without the popup.
//!
//! Because the *keyboard-window* redraw does not depend on the typed text so
//! far, the first change is position-independent and uniquely characterises
//! the key — the property the classifier is trained on.
//!
//! A window's frame is a stack of layers, and most of them never change.
//! The keyboard's backdrop and each page's key grid, and a login screen's
//! backdrop and chrome, are built once per process per configuration and
//! shared as immutable `Arc<Layer>`s (`shared_layer`). Their key is the
//! keyboard or app, the full [`DeviceConfig`] and, for key grids, the page:
//! everything their geometry is derived from. They are shared across
//! sessions, not held per session, because a fleet keeps thousands of
//! victims resident and per-session copies would multiply that memory. The
//! table holds pure values — insert once, never evict, no counters — so
//! sharing cannot change any result. A key popup is a layer of its own,
//! built when it shows and dropped when it hides, so a keyboard frame is
//! assembled from `Arc`s and costs only its change. The field update,
//! status bar, toast, app-switch and other-app frames are built whole per
//! frame.
//!
//! Consecutive damaged frames of one window differ by a layer or two (popup
//! shown/hidden, one more echo glyph), and the GPU renders these draw lists
//! through [`adreno_sim::pipeline::render`], which assembles each frame from
//! a process-wide cache of layers and computes only the layers it lacks,
//! with output bit-identical to a full render. Every layer carries its own
//! fingerprints, so a frame of shared layers is keyed in O(layers).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::apps::TargetApp;
use crate::keyboard::{Key, KeyboardKind, KeyboardLayout, Page};
use crate::screen::DeviceConfig;
use adreno_sim::geom::Rect;
use adreno_sim::scene::{DrawList, Layer};
use rand::Rng;

/// Names one static window layer: which layer, of which keyboard or app, on
/// which device configuration (and, for a key grid, which page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StaticLayer {
    KeyboardBackdrop(KeyboardKind, DeviceConfig),
    KeyGrid(KeyboardKind, DeviceConfig, Page),
    LoginBackdrop(TargetApp, DeviceConfig),
    LoginChrome(TargetApp, DeviceConfig),
}

/// The process-wide layer for `key`, built by `build` on first use.
///
/// Insert-once: a layer is a pure function of its key, so whichever thread
/// builds it first, every caller gets an equal value.
pub(crate) fn shared_layer(key: StaticLayer, build: impl FnOnce() -> Layer) -> Arc<Layer> {
    static TABLE: OnceLock<Mutex<HashMap<StaticLayer, Arc<Layer>>>> = OnceLock::new();
    let table = TABLE.get_or_init(Default::default);
    // Every update is one insert, so a panic elsewhere while the lock was
    // held cannot have left the table half-written.
    let lock = || table.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(layer) = lock().get(&key) {
        return Arc::clone(layer);
    }
    // Build outside the lock; a concurrent first use builds the same value
    // and the first insert wins.
    let layer = Arc::new(build());
    Arc::clone(lock().entry(key).or_insert(layer))
}

/// The popup currently showing on the keyboard, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopupState {
    /// The character whose popup is showing.
    pub ch: char,
    /// The pressed key's rectangle (screen coordinates).
    pub key_rect: Rect,
}

/// The keyboard window: layout, active page and popup state.
#[derive(Debug, Clone)]
pub struct KeyboardWindow {
    layout: KeyboardLayout,
    page: Page,
    popup: Option<(PopupState, Arc<Layer>)>,
    /// §9.1 mitigation: disable key-press popups entirely.
    popups_enabled: bool,
    /// Extra surface height above the keyboard so popups fit.
    headroom: i32,
    width: i32,
    /// The shared backdrop: keyboard area plus the suggestion strip.
    backdrop: Arc<Layer>,
    /// The shared key grid of each page, indexed by `Page as usize`.
    grids: [Arc<Layer>; 3],
}

impl KeyboardWindow {
    /// Creates the keyboard window for a keyboard app on a device.
    pub fn new(kind: KeyboardKind, config: &DeviceConfig, popups_enabled: bool) -> Self {
        let layout = KeyboardLayout::new(kind, config);
        let kb = layout.bounds();
        let headroom = kb.height(); // ample room for any popup
        let width = config.width();
        let oy = kb.y0 - headroom; // surface origin in screen space
        let backdrop = shared_layer(StaticLayer::KeyboardBackdrop(kind, *config), || {
            let mut bg = Layer::new("kb-bg");
            bg.quad(kb.translated(0, -oy), true);
            // The suggestion strip above the key rows. Suggestions stay
            // blank on credential fields (password managers disable them),
            // so the strip is static content — but top-row popups occlude
            // it, which is part of the per-key LRZ signal.
            let strip_h = kb.height() / 4 * 3 / 5;
            bg.quad(Rect::new(0, headroom - strip_h, width, headroom), true);
            bg
        });
        let grids = [Page::Lower, Page::Upper, Page::Number].map(|page| {
            shared_layer(StaticLayer::KeyGrid(kind, *config, page), || {
                let mut keys = Layer::new("kb-keys");
                let label_thickness = 4;
                for kg in layout.keys(page) {
                    let r = kg.rect.translated(0, -oy);
                    keys.quad(r, true);
                    if let Key::Char(c) = kg.key {
                        keys.glyph(c, r.inset(r.width() / 5), label_thickness);
                    }
                }
                keys
            })
        });
        KeyboardWindow {
            layout,
            page: Page::Lower,
            popup: None,
            popups_enabled,
            headroom,
            width,
            backdrop,
            grids,
        }
    }

    /// The underlying layout.
    pub fn layout(&self) -> &KeyboardLayout {
        &self.layout
    }

    /// The active page.
    pub fn page(&self) -> Page {
        self.page
    }

    /// Applies a special key that changes the page. Returns `true` if the
    /// page changed (which damages the whole keyboard).
    pub fn apply_page_key(&mut self, key: Key) -> bool {
        let next = crate::keyboard::page_after(self.page, key);
        let changed = next != self.page;
        self.page = next;
        changed
    }

    /// Shows the popup for `ch` (no-op when popups are disabled or the
    /// character is not on the current page), building its layer.
    pub fn show_popup(&mut self, ch: char) -> bool {
        if !self.popups_enabled {
            return false;
        }
        match self.layout.key_for_char(ch) {
            Some((page, key_rect)) if page == self.page => {
                let oy = self.layout.bounds().y0 - self.headroom;
                let popup_rect = self.layout.popup_rect(&key_rect).translated(0, -oy);
                let mut layer = Layer::new("popup");
                layer.quad(popup_rect, true);
                layer.glyph(
                    ch,
                    self.layout.popup_glyph_rect(&popup_rect),
                    self.layout.glyph_thickness(),
                );
                self.popup = Some((PopupState { ch, key_rect }, Arc::new(layer)));
                true
            }
            _ => false,
        }
    }

    /// Hides any active popup, dropping its layer. Returns `true` if one was
    /// showing.
    pub fn hide_popup(&mut self) -> bool {
        self.popup.take().is_some()
    }

    /// The active popup, if any.
    pub fn popup(&self) -> Option<&PopupState> {
        self.popup.as_ref().map(|(state, _)| state)
    }

    /// Builds the window's draw list (surface-local coordinates) from its
    /// layers: the shared backdrop, the active page's shared key grid and
    /// the popup, if one is showing.
    pub fn draw(&self) -> DrawList {
        let mut dl = DrawList::new(self.width, self.headroom + self.layout.bounds().height());
        dl.push_layer(Arc::clone(&self.backdrop));
        dl.push_layer(Arc::clone(&self.grids[self.page as usize]));
        if let Some((_, layer)) = &self.popup {
            dl.push_layer(Arc::clone(layer));
        }
        dl
    }
}

/// The status bar window (notification icons).
#[derive(Debug, Clone)]
pub struct StatusBar {
    width: i32,
    height: i32,
    icons: usize,
}

impl StatusBar {
    /// Creates the status bar for a device.
    pub fn new(config: &DeviceConfig) -> Self {
        StatusBar { width: config.width(), height: 64 + config.ui_scale_offset(), icons: 0 }
    }

    /// A notification arrived; its icon appears.
    pub fn add_icon(&mut self) {
        self.icons = (self.icons + 1).min(12);
    }

    /// Icons currently showing.
    pub fn icons(&self) -> usize {
        self.icons
    }

    /// Builds the status bar draw list.
    pub fn draw(&self) -> DrawList {
        let mut dl = DrawList::new(self.width, self.height);
        dl.layer("bar").quad(Rect::new(0, 0, self.width, self.height), true);
        let icons = dl.layer("icons");
        for i in 0..self.icons {
            let x = self.width - 80 - (i as i32) * 56;
            icons.quad(Rect::new(x, 14, x + 40, self.height - 14), false);
        }
        dl
    }
}

/// One frame of the app-switch (overview) animation.
///
/// The overview shows scaled-down cards of recent apps sliding in/out —
/// large, fast counter bursts with inter-frame spacing < 50 ms, which is the
/// signature the §5.2 detector keys on (Fig 13).
pub fn draw_switch_frame(config: &DeviceConfig, progress: f64) -> DrawList {
    let w = config.width();
    let h = config.height();
    let mut dl = DrawList::new(w, h);
    dl.layer("wallpaper").quad(Rect::new(0, 0, w, h), true);
    let cards = dl.layer("overview-cards");
    let p = progress.clamp(0.0, 1.0);
    // Cards shrink from full screen (p=0) to overview size (p=1).
    let scale = 1.0 - 0.45 * p;
    let card_w = (w as f64 * scale) as i32;
    let card_h = (h as f64 * scale) as i32;
    let slide = (p * w as f64 * 0.6) as i32;
    for i in -1..=1i32 {
        let cx = w / 2 + i * (card_w + 40) - slide / 3;
        let cy = h / 2;
        let r = Rect::new(cx - card_w / 2, cy - card_h / 2, cx + card_w / 2, cy + card_h / 2);
        cards.quad(r, true);
        // App preview content inside the card.
        cards.quad(r.inset(card_w / 10), false);
    }
    dl
}

/// One frame of activity in a non-target app (scrolling a feed, etc.).
/// Content is pseudo-random: item count and offsets come from `rng`.
pub fn draw_other_app_frame<R: Rng>(config: &DeviceConfig, rng: &mut R) -> DrawList {
    let w = config.width();
    let h = config.height();
    let mut dl = DrawList::new(w, h);
    dl.layer("bg").quad(Rect::new(0, 0, w, h), true);
    let feed = dl.layer("feed");
    let items = rng.gen_range(3..12);
    let offset = rng.gen_range(0..120);
    for i in 0..items {
        let y = offset + i * (h / items.max(1)) * 9 / 10;
        feed.quad(Rect::new(40, y, w - 40, y + h / items.max(1) * 7 / 10), true);
    }
    dl
}

/// The pulled-down notification shade (a full-width panel with one row per
/// notification) — the "view notification bar" user event of Fig 27.
pub fn draw_notification_shade(config: &DeviceConfig, notifications: usize) -> DrawList {
    let w = config.width();
    let h = config.height();
    let mut dl = DrawList::new(w, h);
    dl.layer("scrim").quad(Rect::new(0, 0, w, h), false);
    let panel = dl.layer("panel");
    let ph = (h / 3).max(300) + notifications as i32 * 140;
    panel.quad(Rect::new(0, 0, w, ph.min(h)), true);
    for i in 0..notifications {
        let y = 120 + i as i32 * 140;
        if y + 120 > h {
            break;
        }
        panel.quad(Rect::new(24, y, w - 24, y + 120), false);
    }
    dl
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;
    use adreno_sim::model::GpuModel;
    use adreno_sim::pipeline::render;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> DeviceConfig {
        DeviceConfig::oneplus8pro()
    }

    fn total(dl: &DrawList) -> u64 {
        render(dl, &GpuModel::Adreno650.params()).totals.total()
    }

    /// The keyboard frame built from scratch, layer by layer, as the window
    /// drew it before its static layers were shared: the reference the
    /// shared assembly must equal.
    fn reference_draw(kw: &KeyboardWindow) -> DrawList {
        let kb = kw.layout.bounds();
        let oy = kb.y0 - kw.headroom; // surface origin in screen space
        let surface_h = kw.headroom + kb.height();
        let mut dl = DrawList::new(kw.width, surface_h);

        let bg = dl.layer("kb-bg");
        bg.quad(kb.translated(0, -oy), true);
        let strip_h = kb.height() / 4 * 3 / 5;
        bg.quad(Rect::new(0, kw.headroom - strip_h, kw.width, kw.headroom), true);

        let keys = dl.layer("kb-keys");
        let label_thickness = 4;
        for kg in kw.layout.keys(kw.page) {
            let r = kg.rect.translated(0, -oy);
            keys.quad(r, true);
            if let Key::Char(c) = kg.key {
                keys.glyph(c, r.inset(r.width() / 5), label_thickness);
            }
        }

        if let Some(p) = kw.popup() {
            let popup_rect = kw.layout.popup_rect(&p.key_rect).translated(0, -oy);
            let layer = dl.layer("popup");
            layer.quad(popup_rect, true);
            layer.glyph(p.ch, kw.layout.popup_glyph_rect(&popup_rect), kw.layout.glyph_thickness());
        }
        dl
    }

    #[test]
    fn shared_keyboard_frames_equal_fresh_ones() {
        use crate::keyboard::ALL_KEYBOARDS;
        use crate::screen::{PhoneModel, Resolution};

        let qhd = DeviceConfig {
            resolution: Resolution::Qhd,
            ..DeviceConfig::for_phone(PhoneModel::GalaxyS21)
        };
        for device in [cfg(), qhd] {
            let check = |kw: &KeyboardWindow| {
                assert_eq!(kw.draw(), reference_draw(kw), "{:?} on {device}", kw.layout().kind());
            };
            for kind in ALL_KEYBOARDS {
                let mut kw = KeyboardWindow::new(kind, &device, true);
                // Lower, then Upper (shift), then Number (?123).
                for page_key in [None, Some(Key::Shift), Some(Key::PageSwitch)] {
                    if let Some(key) = page_key {
                        assert!(kw.apply_page_key(key));
                    }
                    check(&kw);
                    let mut shown = 0;
                    for kg in kw.layout().keys(kw.page()) {
                        // `,` and `.` sit on every page but pop up only on
                        // their own.
                        if let Key::Char(c) = kg.key {
                            if kw.show_popup(c) {
                                shown += 1;
                                check(&kw);
                            }
                        }
                    }
                    assert!(shown >= 26, "{shown} popups on {:?}", kw.page());
                    assert!(kw.hide_popup());
                    check(&kw);
                }
            }
        }
    }

    #[test]
    fn popup_changes_keyboard_frame_cost() {
        let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        let base = total(&kw.draw());
        assert!(kw.show_popup('w'));
        let with_popup = total(&kw.draw());
        assert!(with_popup > base, "popup adds pixels, tiles and primitives");
        assert!(kw.hide_popup());
        assert_eq!(total(&kw.draw()), base, "hide restores the exact base cost");
    }

    #[test]
    fn different_keys_give_different_popup_frames() {
        let params = GpuModel::Adreno650.params();
        let frame = |c: char| {
            let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
            kw.show_popup(c);
            render(&kw.draw(), &params).totals
        };
        // All lowercase keys must be pairwise distinguishable in the full
        // 11-counter space — the foundation of the whole attack.
        let chars: Vec<char> = "qwertyuiopasdfghjklzxcvbnm".chars().collect();
        let frames: Vec<_> = chars.iter().map(|&c| frame(c)).collect();
        for i in 0..frames.len() {
            for j in (i + 1)..frames.len() {
                assert_ne!(
                    frames[i], frames[j],
                    "popup frames for {:?} and {:?} collide",
                    chars[i], chars[j]
                );
            }
        }
    }

    #[test]
    fn popup_disabled_mitigation_blocks_popup() {
        let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), false);
        assert!(!kw.show_popup('w'));
        assert!(kw.popup().is_none());
        assert!(!kw.hide_popup());
    }

    #[test]
    fn popup_requires_current_page() {
        let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        assert!(!kw.show_popup('7'), "'7' lives on the Number page");
        assert!(kw.apply_page_key(Key::PageSwitch));
        assert!(kw.show_popup('7'));
    }

    #[test]
    fn page_keys_follow_the_fsm() {
        let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        assert_eq!(kw.page(), Page::Lower);
        assert!(kw.apply_page_key(Key::Shift));
        assert_eq!(kw.page(), Page::Upper);
        assert!(kw.apply_page_key(Key::PageSwitch));
        assert_eq!(kw.page(), Page::Number);
        assert!(!kw.apply_page_key(Key::Shift), "shift is inert on the number page");
        assert!(kw.apply_page_key(Key::PageSwitch));
        assert_eq!(kw.page(), Page::Lower);
    }

    #[test]
    fn page_redraw_cost_differs_per_page() {
        let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        let lower = total(&kw.draw());
        kw.apply_page_key(Key::PageSwitch);
        let number = total(&kw.draw());
        assert_ne!(lower, number);
    }

    #[test]
    fn status_bar_icons_change_cost() {
        let mut sb = StatusBar::new(&cfg());
        let a = total(&sb.draw());
        sb.add_icon();
        let b = total(&sb.draw());
        assert!(b > a);
    }

    #[test]
    fn switch_frames_are_large_and_vary_with_progress() {
        let f0 = total(&draw_switch_frame(&cfg(), 0.1));
        let f1 = total(&draw_switch_frame(&cfg(), 0.9));
        assert_ne!(f0, f1);
        // Switch frames are far larger than a keyboard redraw.
        let kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        assert!(f0 > total(&kw.draw()));
    }

    #[test]
    fn other_app_frames_vary() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = total(&draw_other_app_frame(&cfg(), &mut rng));
        let b = total(&draw_other_app_frame(&cfg(), &mut rng));
        assert_ne!(a, b, "feed scrolling must not be constant-cost");
    }

    #[test]
    fn keyboard_window_has_popup_headroom() {
        let kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        let dl = kw.draw();
        assert!(dl.height() > kw.layout().bounds().height());
    }

    #[test]
    fn popup_prims_survive_in_lrz() {
        // The popup layer sits on top: its primitives must be visible, and
        // it must occlude (LRZ-assign) key prims below it.
        let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg(), true);
        let params = GpuModel::Adreno650.params();
        let base = render(&kw.draw(), &params).totals;
        kw.show_popup('g'); // middle of the keyboard: popup covers keys above
        let with = render(&kw.draw(), &params).totals;
        assert!(
            with[TrackedCounter::VpcLrzAssignPrimitives]
                > base[TrackedCounter::VpcLrzAssignPrimitives],
            "popup must occlude keys underneath"
        );
    }
}
