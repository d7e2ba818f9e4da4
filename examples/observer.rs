//! Live observability: run a two-shard tier with the HTTP observer and a
//! flight recording, keep traffic flowing, and self-scrape at exit.
//!
//! ```sh
//! cargo run --release --example observer
//! # elsewhere, while it runs:
//! #   curl http://127.0.0.1:9464/metrics
//! #   curl http://127.0.0.1:9464/readyz
//! ```
//!
//! Environment knobs (all optional):
//! - `NGM_OBS_ADDR`   — listen address (default `127.0.0.1:9464`;
//!   use `127.0.0.1:0` for an ephemeral port, printed at startup)
//! - `NGM_OBS_RECORD` — flight-recording path (default
//!   `<tmp>/ngm-observer-example.jsonl`)
//! - `NGM_OBS_SECS`   — how long to keep traffic running (default 5)

use std::alloc::Layout;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ngm_core::{CorePlacement, NgmConfig, ObserverConfig};
use ngm_telemetry::export::validate_exposition;
use ngm_telemetry::recorder::read_recording;
use ngm_telemetry::server::http_get;

fn main() {
    let addr = std::env::var("NGM_OBS_ADDR").unwrap_or_else(|_| "127.0.0.1:9464".into());
    let record = std::env::var("NGM_OBS_RECORD")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("ngm-observer-example.jsonl"));
    let secs: u64 = std::env::var("NGM_OBS_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(2)
            .with_placement(CorePlacement::Unpinned)
            .with_trace_capacity(4096)
            .with_observer(
                ObserverConfig::new(&addr)
                    .with_recording(&record)
                    .with_scrape_interval(Duration::from_millis(250)),
            )
            .build()
            .expect("valid config"),
    );
    let mut observer = ngm
        .start_observer()
        .expect("observer binds")
        .expect("config carries an observer");
    println!("observer listening on http://{}", observer.addr());
    println!("flight recording at {}", record.display());
    println!("endpoints: /metrics /spans /blackbox /healthz /readyz");

    // Keep a small churn running so the endpoints have something to show.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|t: usize| {
            let ngm = Arc::clone(&ngm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut h = ngm.handle();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let l = Layout::from_size_align(16 * (1 + (i + t) % 8), 8).expect("valid");
                    let p = h.alloc(l).expect("alloc");
                    // SAFETY: block just allocated, freed once.
                    unsafe { h.dealloc(p, l) };
                    i += 1;
                }
                i
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs(secs));
    stop.store(true, Ordering::Relaxed);
    for (t, w) in workers.into_iter().enumerate() {
        println!(
            "worker {t}: {} alloc/free rounds",
            w.join().expect("worker")
        );
    }

    // Self-scrape before exiting: the same checks an external monitor
    // (or the CI smoke job) would run.
    let (status, body) = http_get(observer.addr(), "/metrics").expect("self-scrape");
    println!("GET /metrics -> {status} ({} bytes)", body.len());
    println!("exposition valid: {}", validate_exposition(&body).is_ok());
    let (status, body) = http_get(observer.addr(), "/readyz").expect("self-scrape");
    println!("GET /readyz -> {status} ({})", body.trim());

    observer.stop();
    let frames = read_recording(&record).map(|f| f.len()).unwrap_or(0);
    println!("recorded {frames} frame(s)");
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    println!(
        "shutdown clean: {}, balanced: {}",
        down.clean(),
        down.balanced()
    );
}
