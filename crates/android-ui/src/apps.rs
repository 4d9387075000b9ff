//! Target applications and their login screens.
//!
//! The attack targets credential entry in banking/investment/credit apps and
//! their web versions (§3.1). Each app's login screen has distinct chrome,
//! so the *base* redraw cost differs per app — which is why the paper trains
//! and evaluates per application (Fig 19). The PNC app additionally runs a
//! decorative animation on its login screen, which the paper measures as an
//! accidental obfuscation defence (Fig 29, §9.3).
//!
//! A login screen's backdrop and chrome never change while the victim
//! types, so they are built once per process for each app and device
//! configuration and shared as immutable layers (see
//! [`crate::compositor`]). A full redraw assembles those two `Arc`s with a
//! text-field layer built for the frame and, for PNC, the animation layer of
//! the frame's phase.

use std::sync::Arc;

use crate::compositor::{shared_layer, StaticLayer};
use crate::screen::DeviceConfig;
use adreno_sim::geom::{Rect, Segment};
use adreno_sim::scene::{DrawList, Layer};
use std::fmt;

/// Applications (and web pages) the attack is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TargetApp {
    /// Chase Mobile (the §7.1 headline evaluation app).
    Chase,
    /// American Express.
    Amex,
    /// Fidelity Investments.
    Fidelity,
    /// Charles Schwab.
    Schwab,
    /// myFICO.
    MyFico,
    /// Experian.
    Experian,
    /// chase.com in Chrome.
    ChromeChase,
    /// schwab.com in Chrome.
    ChromeSchwab,
    /// experian.com in Chrome.
    ChromeExperian,
    /// PNC Mobile — login screen with decorative animation (Fig 29).
    Pnc,
    /// gedit text editor (Table 2 baseline scene).
    Gedit,
    /// Gmail login page in a desktop browser (Table 2 baseline scene).
    GmailWeb,
    /// Dropbox client login (Table 2 baseline scene).
    DropboxClient,
}

/// The nine mobile targets of Fig 19, in the figure's order.
pub const FIG19_APPS: [TargetApp; 9] = [
    TargetApp::Chase,
    TargetApp::Amex,
    TargetApp::Fidelity,
    TargetApp::Schwab,
    TargetApp::MyFico,
    TargetApp::ChromeChase,
    TargetApp::ChromeSchwab,
    TargetApp::ChromeExperian,
    TargetApp::Experian,
];

impl TargetApp {
    /// Display name matching the paper's figure labels.
    pub const fn name(self) -> &'static str {
        match self {
            TargetApp::Chase => "Chase",
            TargetApp::Amex => "Amex",
            TargetApp::Fidelity => "Fidelity",
            TargetApp::Schwab => "Schwab",
            TargetApp::MyFico => "myFICO",
            TargetApp::Experian => "Experian",
            TargetApp::ChromeChase => "chase.com",
            TargetApp::ChromeSchwab => "schwab.com",
            TargetApp::ChromeExperian => "experian.com",
            TargetApp::Pnc => "PNC",
            TargetApp::Gedit => "gedit",
            TargetApp::GmailWeb => "Gmail web",
            TargetApp::DropboxClient => "Dropbox client",
        }
    }

    /// The short logo text drawn on the login card (distinct chrome per
    /// app → distinct base redraw cost).
    const fn logo(self) -> &'static str {
        match self {
            TargetApp::Chase => "CHASE",
            TargetApp::Amex => "AMEX",
            TargetApp::Fidelity => "Fidelity",
            TargetApp::Schwab => "Schwab",
            TargetApp::MyFico => "myFICO",
            TargetApp::Experian => "Experian",
            TargetApp::ChromeChase => "chase.com",
            TargetApp::ChromeSchwab => "schwab.com",
            TargetApp::ChromeExperian => "experian.com",
            TargetApp::Pnc => "PNC",
            TargetApp::Gedit => "gedit",
            TargetApp::GmailWeb => "Gmail",
            TargetApp::DropboxClient => "Dropbox",
        }
    }

    /// Number of decorative chrome quads (buttons, dividers, banners) on the
    /// login screen.
    const fn chrome_quads(self) -> i32 {
        match self {
            TargetApp::Chase => 6,
            TargetApp::Amex => 8,
            TargetApp::Fidelity => 5,
            TargetApp::Schwab => 7,
            TargetApp::MyFico => 4,
            TargetApp::Experian => 9,
            TargetApp::ChromeChase => 11,
            TargetApp::ChromeSchwab => 12,
            TargetApp::ChromeExperian => 10,
            TargetApp::Pnc => 6,
            TargetApp::Gedit => 3,
            TargetApp::GmailWeb => 9,
            TargetApp::DropboxClient => 7,
        }
    }

    /// Whether the login screen runs a continuous decorative animation
    /// (only PNC among the evaluated apps, Fig 29).
    pub const fn animated_login(self) -> bool {
        matches!(self, TargetApp::Pnc)
    }
}

impl fmt::Display for TargetApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Geometry of an app's login screen on a device.
#[derive(Debug, Clone)]
pub struct LoginScreen {
    app: TargetApp,
    width: i32,
    height: i32,
    card: Rect,
    field: Rect,
    /// The shared full-screen background layer.
    backdrop: Arc<Layer>,
    /// The shared chrome layer: login card, decorative quads and logo.
    chrome: Arc<Layer>,
}

impl LoginScreen {
    /// Lays out `app`'s login screen on `config`'s display.
    pub fn new(app: TargetApp, config: &DeviceConfig) -> Self {
        let w = config.width();
        let h = config.height();
        let off = config.ui_scale_offset();
        let card = Rect::new(w / 12, h / 6 + off, w * 11 / 12, h / 2 + off);
        let field = Rect::new(
            card.x0 + 24,
            card.y0 + card.height() / 2,
            card.x1 - 24,
            card.y0 + card.height() / 2 + 96,
        );
        let backdrop = shared_layer(StaticLayer::LoginBackdrop(app, *config), || {
            let mut bg = Layer::new("app-bg");
            bg.quad(Rect::new(0, 0, w, h), true);
            bg
        });
        let chrome = shared_layer(StaticLayer::LoginChrome(app, *config), || {
            let mut chrome = Layer::new("app-chrome");
            chrome.quad(card, true);
            // Decorative chrome: deterministic pseudo-layout derived from
            // the app identity so every app has a unique base cost.
            for i in 0..app.chrome_quads() {
                let y = card.y1 + 40 + i * 90;
                let inset = 30 + (i * 37) % 120;
                chrome.quad(Rect::new(card.x0 + inset, y, card.x1 - inset, y + 56), true);
            }
            // Logo text.
            let glyph_w = 54;
            let mut x = card.x0 + 32;
            for ch in app.logo().chars() {
                chrome.glyph(ch, Rect::new(x, card.y0 + 28, x + glyph_w, card.y0 + 28 + 72), 6);
                x += glyph_w + 6;
            }
            chrome
        });
        LoginScreen { app, width: w, height: h, card, field, backdrop, chrome }
    }

    /// The app this screen belongs to.
    pub fn app(&self) -> TargetApp {
        self.app
    }

    /// The credential input field rectangle.
    pub fn field(&self) -> Rect {
        self.field
    }

    /// Builds the draw list of a *field-region* update: Android's damage
    /// tracking redraws only the invalidated text-field area when a
    /// character is echoed or the cursor blinks, not the whole window.
    /// This is why echo/blink deltas are small relative to popup deltas
    /// (compare Fig 14's ~90-count changes to Fig 5's ~1600-count ones).
    pub fn draw_field_update(&self, text_len: usize, cursor_visible: bool) -> DrawList {
        let mut dl = DrawList::new(self.width, self.height);
        let field_layer = dl.layer("text-field");
        self.draw_field_content(field_layer, text_len, cursor_visible);
        dl
    }

    fn draw_field_content(&self, field_layer: &mut Layer, text_len: usize, cursor_visible: bool) {
        field_layer.quad(self.field, true);
        // Committed characters: one cell quad each (masked input dots). The
        // 40 px cell pitch is a multiple of the 8 px LRZ tile, so every cell
        // contributes an identical counter delta — the +2/-2 linearity of
        // Fig 14.
        let cell_w = 30;
        let max_cells = self.max_cells();
        for i in 0..text_len.min(max_cells) {
            let cx = self.field.x0 + 12 + (i as i32) * (cell_w + 10);
            let cy = (self.field.y0 + self.field.y1) / 2;
            field_layer.quad(Rect::new(cx, cy - cell_w / 2, cx + cell_w, cy + cell_w / 2), true);
        }
        if cursor_visible {
            let cx = self.field.x0 + 12 + (text_len.min(max_cells) as i32) * (cell_w + 10);
            field_layer.quad(Rect::new(cx, self.field.y0 + 16, cx + 4, self.field.y1 - 16), true);
        }
    }

    /// Maximum number of visible character cells in the field.
    pub fn max_cells(&self) -> usize {
        (((self.field.width() - 24) / 40).max(1)) as usize
    }

    /// Builds the app window's draw list for one frame.
    ///
    /// * `text_len` — committed characters in the field; each draws one
    ///   small opaque quad (two triangles), which is why the visible-prim
    ///   counter moves by exactly ±2 per character (Fig 14).
    /// * `cursor_visible` — blink phase of the text cursor.
    /// * `anim_phase` — `0.0..1.0` phase of the decorative animation; only
    ///   used when [`TargetApp::animated_login`] is true.
    pub fn draw(&self, text_len: usize, cursor_visible: bool, anim_phase: f64) -> DrawList {
        let mut dl = DrawList::new(self.width, self.height);
        dl.push_layer(Arc::clone(&self.backdrop));
        dl.push_layer(Arc::clone(&self.chrome));

        let field_layer = dl.layer("text-field");
        self.draw_field_content(field_layer, text_len, cursor_visible);

        if self.app.animated_login() {
            // PNC's decorative wave: a band of strokes sweeping across the
            // card every cycle — redrawn every frame, continuously feeding
            // the counters (the accidental defence of Fig 29).
            let anim = dl.layer("login-animation");
            let band_w = self.card.width() / 4;
            let sweep = (anim_phase * (self.card.width() - band_w) as f64) as i32;
            let origin = Rect::new(
                self.card.x0 + sweep,
                self.card.y0,
                self.card.x0 + sweep + band_w,
                self.card.y1,
            );
            anim.quad(origin, false);
            for k in 0..6 {
                let fx = k as f32 * 1.3;
                anim.stroke(Segment::new(0.5 + fx * 0.3, 1.0, 1.5 + fx * 0.5, 7.0), origin, 4);
            }
        }
        dl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::model::GpuModel;
    use adreno_sim::pipeline::render;

    fn cfg() -> DeviceConfig {
        DeviceConfig::oneplus8pro()
    }

    fn cost(app: TargetApp, text_len: usize, cursor: bool, phase: f64) -> u64 {
        let screen = LoginScreen::new(app, &cfg());
        render(&screen.draw(text_len, cursor, phase), &GpuModel::Adreno650.params()).totals.total()
    }

    /// The login frame built from scratch, layer by layer, as the screen
    /// drew it before its backdrop and chrome were shared: the reference the
    /// shared assembly must equal.
    fn reference_draw(
        screen: &LoginScreen,
        text_len: usize,
        cursor_visible: bool,
        anim_phase: f64,
    ) -> DrawList {
        let mut dl = DrawList::new(screen.width, screen.height);

        let bg = dl.layer("app-bg");
        bg.quad(Rect::new(0, 0, screen.width, screen.height), true);

        let chrome = dl.layer("app-chrome");
        chrome.quad(screen.card, true);
        let n = screen.app.chrome_quads();
        for i in 0..n {
            let y = screen.card.y1 + 40 + i * 90;
            let inset = 30 + (i * 37) % 120;
            chrome.quad(Rect::new(screen.card.x0 + inset, y, screen.card.x1 - inset, y + 56), true);
        }
        let logo = screen.app.logo();
        let glyph_w = 54;
        let mut x = screen.card.x0 + 32;
        for ch in logo.chars() {
            chrome.glyph(
                ch,
                Rect::new(x, screen.card.y0 + 28, x + glyph_w, screen.card.y0 + 28 + 72),
                6,
            );
            x += glyph_w + 6;
        }

        let field_layer = dl.layer("text-field");
        screen.draw_field_content(field_layer, text_len, cursor_visible);

        if screen.app.animated_login() {
            let anim = dl.layer("login-animation");
            let band_w = screen.card.width() / 4;
            let sweep = (anim_phase * (screen.card.width() - band_w) as f64) as i32;
            let origin = Rect::new(
                screen.card.x0 + sweep,
                screen.card.y0,
                screen.card.x0 + sweep + band_w,
                screen.card.y1,
            );
            anim.quad(origin, false);
            for k in 0..6 {
                let fx = k as f32 * 1.3;
                anim.stroke(Segment::new(0.5 + fx * 0.3, 1.0, 1.5 + fx * 0.5, 7.0), origin, 4);
            }
        }
        dl
    }

    #[test]
    fn shared_login_frames_equal_fresh_ones() {
        use crate::screen::{PhoneModel, Resolution};
        use adreno_sim::memo::fingerprint;

        let apps = [
            TargetApp::Chase,
            TargetApp::Amex,
            TargetApp::Fidelity,
            TargetApp::Schwab,
            TargetApp::MyFico,
            TargetApp::Experian,
            TargetApp::ChromeChase,
            TargetApp::ChromeSchwab,
            TargetApp::ChromeExperian,
            TargetApp::Pnc,
            TargetApp::Gedit,
            TargetApp::GmailWeb,
            TargetApp::DropboxClient,
        ];
        let qhd = DeviceConfig {
            resolution: Resolution::Qhd,
            ..DeviceConfig::for_phone(PhoneModel::LgV30Plus)
        };
        for device in [cfg(), qhd] {
            let params = device.gpu().params();
            for app in apps {
                let screen = LoginScreen::new(app, &device);
                for (text_len, cursor) in [(0, true), (0, false), (5, true), (40, false)] {
                    for phase in [0.0, 0.13, 0.5, 0.99] {
                        let shared = screen.draw(text_len, cursor, phase);
                        let fresh = reference_draw(&screen, text_len, cursor, phase);
                        assert_eq!(shared, fresh, "{app} on {device}, phase {phase}");
                        assert_eq!(fingerprint(&shared, &params), fingerprint(&fresh, &params));
                    }
                }
            }
        }
    }

    #[test]
    fn apps_have_distinct_base_costs() {
        let mut costs: Vec<u64> = FIG19_APPS.iter().map(|&a| cost(a, 0, false, 0.0)).collect();
        costs.sort_unstable();
        costs.dedup();
        assert_eq!(costs.len(), FIG19_APPS.len(), "each app needs a unique chrome cost");
    }

    #[test]
    fn visible_prims_increase_by_two_per_character() {
        use adreno_sim::counters::TrackedCounter;
        let screen = LoginScreen::new(TargetApp::Chase, &cfg());
        let params = GpuModel::Adreno650.params();
        let p0 = render(&screen.draw(3, false, 0.0), &params).totals
            [TrackedCounter::LrzVisiblePrimAfterLrz];
        let p1 = render(&screen.draw(4, false, 0.0), &params).totals
            [TrackedCounter::LrzVisiblePrimAfterLrz];
        let p2 = render(&screen.draw(5, false, 0.0), &params).totals
            [TrackedCounter::LrzVisiblePrimAfterLrz];
        assert_eq!(p1 - p0, 2, "one character = one quad = two visible primitives (Fig 14)");
        assert_eq!(p2 - p1, 2);
    }

    #[test]
    fn cursor_toggle_changes_cost() {
        assert_ne!(cost(TargetApp::Chase, 4, true, 0.0), cost(TargetApp::Chase, 4, false, 0.0));
    }

    #[test]
    fn only_pnc_is_animated() {
        assert!(TargetApp::Pnc.animated_login());
        for a in FIG19_APPS {
            assert!(!a.animated_login());
        }
    }

    #[test]
    fn pnc_animation_varies_with_phase() {
        let a = cost(TargetApp::Pnc, 4, false, 0.1);
        let b = cost(TargetApp::Pnc, 4, false, 0.7);
        assert_ne!(a, b, "animation must move the counters every frame");
    }

    #[test]
    fn long_text_saturates_field() {
        // Once the field is full, extra characters stop adding cells.
        let base = cost(TargetApp::Chase, 30, false, 0.0);
        let more = cost(TargetApp::Chase, 31, false, 0.0);
        assert_eq!(base, more);
    }
}
