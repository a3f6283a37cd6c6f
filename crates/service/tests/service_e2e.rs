//! End-to-end service test in one process: a real `serve()` on a temp
//! spool, a real socket, a real sweep — submit, watch to completion,
//! idempotent resubmit, error replies, drain, and the warehouse rows the
//! run landed.

use rnuca_service::{serve, Request, ServiceClient, ServiceConfig, SubmitSpec};
use rnuca_warehouse::Warehouse;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rnuca-e2e-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn submit_watch_drain_lifecycle() {
    let root = temp_root("lifecycle");
    let config = ServiceConfig {
        spool: root.join("spool"),
        store: root.join("warehouse.bin"),
        workers: 2,
    };
    let server = {
        let config = config.clone();
        thread::spawn(move || serve(&config))
    };
    let socket = config.spool.join("service.sock");
    let mut client = ServiceClient::connect_with_retry(&socket, Duration::from_secs(10))
        .expect("service comes up");

    // A malformed spec is an `err`, and the connection stays usable.
    let reply = client
        .request(&Request::Submit("v1|config=galactic".to_string()))
        .unwrap();
    assert!(reply.starts_with("err "), "got: {reply}");

    // Submit a one-job sweep.
    let spec = SubmitSpec {
        workloads: vec!["oltp-db2".to_string()],
        designs: vec!["R".to_string()],
        core_counts: vec![16],
        ..SubmitSpec::default()
    };
    let id = spec.submission_id().unwrap();
    let reply = client.request(&Request::Submit(spec.encode())).unwrap();
    assert_eq!(reply, format!("ok {id} queued"));

    // Watch it to completion; events arrive in lifecycle order.
    let mut events = Vec::new();
    let done = client.watch(&id, |e| events.push(e.to_string())).unwrap();
    assert_eq!(done, format!("done {id} completed ok=1 failed=0"));
    assert!(
        events
            .iter()
            .all(|e| e.starts_with(&format!("event {id} "))),
        "events carry the id: {events:?}"
    );

    // Resubmitting the identical spec is idempotent, not a second run.
    let reply = client.request(&Request::Submit(spec.encode())).unwrap();
    assert_eq!(reply, format!("ok {id} completed ok=1 failed=0"));

    // Status reports it; unknown ids err on watch and cancel.
    let status = client.request(&Request::Status).unwrap();
    assert!(
        status.contains(&id),
        "status lists the submission: {status}"
    );
    let reply = client
        .request(&Request::Cancel("snope".to_string()))
        .unwrap();
    assert!(reply.starts_with("err "), "got: {reply}");
    let reply = client.watch("snope", |_| {}).unwrap();
    assert!(reply.starts_with("err "), "got: {reply}");

    // Drain: the service finishes and the socket goes away.
    let reply = client.request(&Request::Drain).unwrap();
    assert_eq!(reply, "ok draining");
    server
        .join()
        .expect("serve thread")
        .expect("serve exits cleanly");
    assert!(!socket.exists(), "drain removes the socket");

    // The sweep's row landed through the atomic save, and the completed
    // submission's spool entry was retired.
    let store = Warehouse::open(&config.store).expect("warehouse is readable");
    let out = store
        .query("kind=sweep show workload, design, cores")
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0].to_string(), "OLTP DB2");
    assert_eq!(out.rows[0][1].to_string(), "R");
    assert!(
        !config.spool.join(&id).exists(),
        "completed submissions leave no spool entry"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_draining_service_refuses_new_submissions() {
    let root = temp_root("refuse");
    let config = ServiceConfig {
        spool: root.join("spool"),
        store: root.join("warehouse.bin"),
        workers: 1,
    };
    let server = {
        let config = config.clone();
        thread::spawn(move || serve(&config))
    };
    let socket = config.spool.join("service.sock");
    let mut client = ServiceClient::connect_with_retry(&socket, Duration::from_secs(10))
        .expect("service comes up");
    assert_eq!(client.request(&Request::Drain).unwrap(), "ok draining");
    let reply = client.request(&Request::Submit(SubmitSpec::default().encode()));
    // The service may still answer (err) or may already have hung up; both
    // are acceptable shutdown behaviours, silently running the sweep is not.
    if let Ok(reply) = reply {
        assert!(reply.starts_with("err "), "got: {reply}");
    }
    server.join().expect("serve thread").expect("clean exit");
    assert!(!config.store.exists(), "nothing ran, nothing was saved");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_deadline_quarantines_every_job_of_a_submission() {
    let root = temp_root("deadline");
    let config = ServiceConfig {
        spool: root.join("spool"),
        store: root.join("warehouse.bin"),
        workers: 2,
    };
    let server = {
        let config = config.clone();
        thread::spawn(move || serve(&config))
    };
    let socket = config.spool.join("service.sock");
    let mut client = ServiceClient::connect_with_retry(&socket, Duration::from_secs(10))
        .expect("service comes up");

    // A 600k-reference warm-up cannot finish inside 1 ms: every attempt,
    // group and solo, stops at the deadline.
    let spec = SubmitSpec {
        config: "full".to_string(),
        workloads: vec!["oltp-db2".to_string()],
        designs: vec!["S".to_string(), "R".to_string()],
        core_counts: vec![16],
        deadline_ms: 1,
        ..SubmitSpec::default()
    };
    let id = spec.submission_id().unwrap();
    let reply = client.request(&Request::Submit(spec.encode())).unwrap();
    assert_eq!(reply, format!("ok {id} queued"));
    let done = client.watch(&id, |_| {}).unwrap();
    assert_eq!(done, format!("done {id} completed ok=0 failed=2"));

    assert_eq!(client.request(&Request::Drain).unwrap(), "ok draining");
    server.join().expect("serve thread").expect("clean exit");
    let store = Warehouse::open(&config.store).expect("warehouse is readable");
    let out = store.query("kind=failed show failure").unwrap();
    assert_eq!(out.rows.len(), 2);
    for row in &out.rows {
        let failure = row[0].to_string();
        assert!(failure.starts_with("deadline after"), "got: {failure}");
    }
    std::fs::remove_dir_all(&root).ok();
}
