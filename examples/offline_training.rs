//! Offline-phase walkthrough (§3.2, §6): train a model, inspect what it
//! learned, serialise it, and probe its classification geometry.
//!
//! ```text
//! cargo run --release --example offline_training
//! ```

use adreno_sim::counters::TrackedCounter;
use gpu_eaves::android_ui::SimConfig;
use gpu_eaves::attack::registry::{encode_model, Quantization, Registry};

fn main() {
    let cfg = SimConfig::paper_default(0);
    println!("offline phase: emulating every key on {} / {} …", cfg.device, cfg.keyboard);
    let registry = Registry::default();
    let handle = registry.get_or_train(cfg.device, cfg.keyboard, cfg.app);
    let model = handle.model();

    println!("\ntrained model for: {}", model.meta());
    println!("  centroids      : {}", model.centroids().len());
    println!("  C_th           : {:.3}", model.threshold());
    println!("  switch thresh. : {} (counter units)", model.switch_threshold());
    println!(
        "  field sigs     : {} (input lengths x cursor states)",
        model.ambient_signatures().len()
    );

    // Which counters carry the per-key signal? The whitening weights are
    // the inverse inter-centroid spreads: the most discriminative counters
    // get the *smallest* spreads and thus the largest weights.
    println!("\nper-counter whitening weights (higher = more trusted):");
    let mut weighted: Vec<(TrackedCounter, f64)> = adreno_sim::counters::ALL_TRACKED
        .into_iter()
        .map(|c| (c, model.weights()[c.index()]))
        .collect();
    weighted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (c, w) in weighted {
        println!("  {:<36} {w:.6}", c.name());
    }

    // The hardest keys: closest centroid pairs.
    let mut pairs: Vec<(f64, char, char)> = Vec::new();
    for (i, a) in model.centroids().iter().enumerate() {
        for b in model.centroids().iter().skip(i + 1) {
            pairs.push((model.distance(&a.values, &b.values), a.ch, b.ch));
        }
    }
    pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    println!("\nhardest key pairs (closest in whitened counter space):");
    for (d, a, b) in pairs.iter().take(8) {
        println!("  {a:?} vs {b:?}  distance {d:.3}");
    }

    // The content-addressed GPMR format, per quantization tier: f64 keeps
    // every value exact, f32 rounds each centroid value to within 2^-23.
    println!("\nGPMR encoding — digest {}:", handle.digest().short());
    for q in Quantization::ALL {
        let blob = encode_model(model, q);
        println!(
            "  {:<3} tier: {} bytes ({:.2} kB)",
            q.name(),
            blob.len(),
            blob.len() as f64 / 1024.0
        );
    }

    // The app ships its models at f32, as the `modelsize` experiment
    // projects.
    let projected = encode_model(model, Quantization::F32).len() * 3_000;
    println!(
        "a 3,000-model store would be {:.2} MB at f32 (paper: <=13.40 MB)",
        projected as f64 / (1024.0 * 1024.0)
    );
}
