//! `mlc-serve` job keys against the records they name: a submission's
//! key must equal the key derived from the decoded records themselves
//! (`digest_records_hex` and the record count), whatever format the
//! trace is stored in and however the server came to know its identity.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mlc_obs::{digest_records_hex, JournalHeader};
use mlc_serve::{
    default_loader, grid_to_json, job_key, JobEvent, Server, ServerConfig, SubmitOutcome,
    SubmitRequest, Tier, TraceLoader,
};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::{FaultPolicy, TraceRecord};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlc_serve_key_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn preset_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(Preset::Vms1.config(seed))
        .expect("valid preset")
        .generate_records(n)
}

/// Writes `records` in the format `path`'s extension names.
fn write_trace(path: &Path, records: &[TraceRecord]) {
    let file = std::fs::File::create(path).unwrap();
    match path.extension().and_then(|e| e.to_str()) {
        Some("din") => mlc_trace::din::write_din(file, records.iter().copied()).unwrap(),
        Some("mlcz") => mlc_trace::binary::write_compressed(file, records).unwrap(),
        _ => mlc_trace::binary::write_binary(file, records).unwrap(),
    }
}

fn request(trace: &Path) -> SubmitRequest {
    SubmitRequest {
        trace: trace.to_path_buf(),
        l1_bytes: 4096,
        ways: 1,
        sizes: vec![16384, 65536],
        cycles: vec![1, 3],
        engine: "onepass".into(),
        warmup_frac: 0.25,
        wait: true,
        deadline_ms: 0,
        trace_id: String::new(),
    }
}

/// The key as a client derives it from the records, without a server.
fn key_of(records: &[TraceRecord], req: &SubmitRequest) -> String {
    job_key(&JournalHeader {
        trace_digest: digest_records_hex(records),
        engine: req.engine.clone(),
        l1_bytes: req.l1_bytes,
        warmup: (records.len() as f64 * req.warmup_frac.clamp(0.0, 0.95)) as u64,
        ways: req.ways,
        sizes: req.sizes.clone(),
        cycles: req.cycles.clone(),
        trace_id: None,
    })
}

fn open_server(store: &Path, loader: TraceLoader) -> Arc<Server> {
    Server::new(ServerConfig::new(store), loader).unwrap()
}

/// Submits and returns the key, the grid's wire form, and the tier
/// that answered (`None` when the grid was computed).
fn submit(server: &Arc<Server>, req: &SubmitRequest) -> (String, String, Option<Tier>) {
    match server.submit(req).unwrap() {
        SubmitOutcome::Cached {
            key, grid, tier, ..
        } => (key, grid_to_json(&grid).to_string_compact(), Some(tier)),
        SubmitOutcome::Running(sub) => loop {
            if let JobEvent::Done(done) = sub.events.recv().expect("job terminates") {
                let grid = done.result.expect("job succeeds");
                break (sub.key, grid_to_json(&grid).to_string_compact(), None);
            }
        },
    }
}

/// `counters.<name>` of the server's `mlc-stats/1` document.
fn counter(server: &Server, name: &str) -> u64 {
    let doc = server.stats_doc("test");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("counters.{name} missing"))
}

#[test]
fn one_key_across_formats_and_it_is_the_record_derived_key() {
    let root = temp_root("formats");
    let records = preset_trace(12_000, 5);
    let server = open_server(&root.join("store"), default_loader());
    let mut answers = Vec::new();
    for name in ["t.din", "t.mlct", "t.mlcz"] {
        let path = root.join(name);
        write_trace(&path, &records);
        let req = request(&path);
        let (key, grid, tier) = submit(&server, &req);
        assert_eq!(key, key_of(&records, &req), "{name}");
        answers.push((key, grid, tier));
    }
    assert_eq!(answers[0].2, None, "the first format computes");
    assert_eq!(answers[1].2, Some(Tier::Memory));
    assert_eq!(answers[2].2, Some(Tier::Memory));
    assert!(answers
        .iter()
        .all(|a| (&a.0, &a.1) == (&answers[0].0, &answers[0].1)));
    assert_eq!(server.stats().jobs_computed, 1);

    // A repeat is identified from the index, with no decode.
    let (key, _, tier) = submit(&server, &request(&root.join("t.din")));
    assert_eq!((key, tier), (answers[0].0.clone(), Some(Tier::Memory)));
    assert!(counter(&server, "trace_index_hits") >= 1);
    assert_eq!(counter(&server, "trace_index_fills"), 3);
    assert_eq!(counter(&server, "trace_loader_fallbacks"), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_file_rewritten_in_place_gets_a_new_key_and_a_fresh_grid() {
    let root = temp_root("rewrite");
    let path = root.join("t.mlct");
    let old = preset_trace(12_000, 9);
    write_trace(&path, &old);
    let old_len = std::fs::metadata(&path).unwrap().len();
    let req = request(&path);
    let server = open_server(&root.join("store"), default_loader());
    let (old_key, _, _) = submit(&server, &req);
    assert_eq!(old_key, key_of(&old, &req));

    // Same path, same length, one address changed.
    let mut new = old.clone();
    new[6_000] = TraceRecord::read(new[6_000].addr.get() ^ 0x100);
    write_trace(&path, &new);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), old_len);
    let (key, grid, tier) = submit(&server, &req);
    assert_ne!(key, old_key);
    assert_eq!(key, key_of(&new, &req));
    assert_eq!(tier, None, "the changed content is computed, not served");

    let fresh = open_server(&root.join("fresh"), default_loader());
    assert_eq!(submit(&fresh, &req), (key, grid, None));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_skip_policy_loader_keys_the_surviving_records_and_indexes_nothing() {
    let root = temp_root("skip");
    let path = root.join("t.din");
    let records = preset_trace(8_000, 13);
    let mut text = Vec::new();
    mlc_trace::din::write_din(&mut text, records.iter().copied()).unwrap();
    text.extend_from_slice(b"not a record\n");
    std::fs::write(&path, &text).unwrap();
    let loader: TraceLoader = Box::new(|path: &Path, _trace_id: &str| {
        mlc_trace::read_file(path, FaultPolicy::Skip { budget: 4 }, None)
            .map(|(records, _)| records)
            .map_err(|e| e.to_string())
    });
    let server = open_server(&root.join("store"), loader);
    let req = request(&path);
    let (key, _, tier) = submit(&server, &req);
    assert_eq!(key, key_of(&records, &req));
    assert_eq!(tier, None);
    assert_eq!(counter(&server, "trace_loader_fallbacks"), 1);
    assert_eq!(counter(&server, "trace_index_fills"), 0);

    // Never indexed: a repeat goes to the loader again.
    let (again, _, tier) = submit(&server, &req);
    assert_eq!((again, tier), (key, Some(Tier::Memory)));
    assert_eq!(counter(&server, "trace_loader_fallbacks"), 2);
    assert_eq!(counter(&server, "trace_index_fills"), 0);
    assert_eq!(counter(&server, "trace_index_hits"), 0);
    let _ = std::fs::remove_dir_all(&root);
}
