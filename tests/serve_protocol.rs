//! Protocol-level tests of the serve daemon: hostile frames, abrupt
//! disconnects, typed error replies, concurrent batched prediction vs
//! one-shot calls, and the no-artifact-writes guarantee. The server
//! must never panic on anything a client sends.

use std::sync::{Mutex, OnceLock};
use std::thread;
use typilus::{
    train, EncoderKind, GraphConfig, LossKind, ModelConfig, PreparedCorpus, RpForestConfig,
    SpaceConfig, TrainedSystem, TypilusConfig,
};
use typilus_corpus::{generate, CorpusConfig};
use typilus_serve::{
    Client, ClientError, ClientOptions, Endpoint, ErrorCode, Health, Request, Response,
    ServeOptions, ServeSummary, Server, SymbolHints, MAX_FRAME_LEN,
};

/// One small trained system shared (by clone) across all tests.
fn fresh_system() -> TrainedSystem {
    static SYSTEM: OnceLock<Mutex<TrainedSystem>> = OnceLock::new();
    SYSTEM
        .get_or_init(|| {
            let corpus = generate(&CorpusConfig {
                files: 30,
                seed: 9,
                ..CorpusConfig::default()
            });
            let data = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 9);
            let config = TypilusConfig {
                model: ModelConfig {
                    encoder: EncoderKind::Graph,
                    loss: LossKind::Typilus,
                    dim: 16,
                    gnn_steps: 3,
                    min_subtoken_count: 1,
                    ..ModelConfig::default()
                },
                epochs: 4,
                batch_size: 8,
                lr: 0.02,
                common_threshold: 8,
                ..TypilusConfig::default()
            };
            Mutex::new(train(&data, &config))
        })
        .lock()
        .unwrap()
        .clone()
}

/// Binds an ephemeral TCP server over a clone of the fixture system
/// and runs it on its own thread; joining the handle yields the
/// summary and the (possibly mutated) system back.
fn start_server(
    options: ServeOptions,
) -> (Endpoint, thread::JoinHandle<(ServeSummary, TrainedSystem)>) {
    start_server_with(fresh_system(), options)
}

/// [`start_server`] over a given system.
fn start_server_with(
    mut system: TrainedSystem,
    options: ServeOptions,
) -> (Endpoint, thread::JoinHandle<(ServeSummary, TrainedSystem)>) {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), options).unwrap();
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || {
        let summary = server.run(&mut system);
        (summary, system)
    });
    (endpoint, handle)
}

fn shutdown_and_join(
    endpoint: &Endpoint,
    handle: thread::JoinHandle<(ServeSummary, TrainedSystem)>,
) -> (ServeSummary, TrainedSystem) {
    let mut client = Client::connect(endpoint).unwrap();
    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap()
}

const QUERY_SRC: &str =
    "def charge(flux_capacitor):\n    flux_capacitor.engage()\n    return flux_capacitor\n";
const BINDING_SRC: &str =
    "def drain(flux_capacitor):\n    flux_capacitor.engage()\n    return flux_capacitor\n";

#[test]
fn malformed_frame_gets_error_reply_and_connection_survives() {
    let (endpoint, handle) = start_server(ServeOptions::default());
    let mut client = Client::connect(&endpoint).unwrap();
    client.send_raw_frame(b"not a serbin request").unwrap();
    match client.read_reply().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed-frame error, got {other:?}"),
    }
    // Framing stayed intact: the same connection still serves.
    assert!(matches!(client.stats().unwrap(), Response::Stats(_)));
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn oversized_frame_is_rejected_and_connection_drops() {
    let (endpoint, handle) = start_server(ServeOptions::default());
    let mut client = Client::connect(&endpoint).unwrap();
    // A hostile prefix announcing one byte past the limit; the stream
    // cannot be resynchronised after it, so the server replies and
    // hangs up without ever allocating the announced buffer.
    client
        .send_raw_bytes(&(MAX_FRAME_LEN + 1).to_le_bytes())
        .unwrap();
    match client.read_reply().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized-frame error, got {other:?}"),
    }
    assert!(client.read_reply().is_err(), "connection should be closed");
    // The server itself is unharmed.
    let mut fresh = Client::connect(&endpoint).unwrap();
    assert!(matches!(fresh.stats().unwrap(), Response::Stats(_)));
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn mid_request_disconnect_leaves_server_serving() {
    let (endpoint, handle) = start_server(ServeOptions::default());
    {
        let mut rude = Client::connect(&endpoint).unwrap();
        // Announce a 100-byte frame, deliver 10 bytes, vanish.
        rude.send_raw_bytes(&100u32.to_le_bytes()).unwrap();
        rude.send_raw_bytes(b"0123456789").unwrap();
    }
    let mut fresh = Client::connect(&endpoint).unwrap();
    match fresh.predict(QUERY_SRC).unwrap() {
        Response::Predictions(symbols) => assert!(!symbols.is_empty()),
        other => panic!("expected predictions, got {other:?}"),
    }
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn batched_concurrent_replies_match_one_shot_predictions() {
    let reference = fresh_system();
    let sources = [
        QUERY_SRC.to_string(),
        "def scale(values, factor):\n    return [v * factor for v in values]\n".to_string(),
        "def greet(name):\n    message = 'hi ' + name\n    return message\n".to_string(),
        "def total(counts):\n    acc = 0\n    for c in counts:\n        acc = acc + c\n    return acc\n"
            .to_string(),
    ];
    let expected: Vec<Vec<SymbolHints>> = sources
        .iter()
        .map(|s| {
            reference
                .predict_source(s)
                .unwrap()
                .iter()
                .map(SymbolHints::of)
                .collect()
        })
        .collect();

    let (endpoint, handle) = start_server(ServeOptions::default());
    // 12 clients, all in flight at once, each sending ROUNDS requests
    // that rotate through the sources: batching and interleaving must be
    // invisible in the replies, and no request may get an error reply.
    const CLIENTS: usize = 12;
    const ROUNDS: usize = 10;
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let endpoint = endpoint.clone();
            let (sources, expected) = (sources.clone(), expected.clone());
            thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                for r in 0..ROUNDS {
                    let i = (c + r) % sources.len();
                    match client.predict(&sources[i]).unwrap() {
                        Response::Predictions(got) => assert_eq!(got, expected[i]),
                        other => {
                            panic!("client {c} round {r}: expected predictions, got {other:?}")
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (summary, _) = shutdown_and_join(&endpoint, handle);
    assert_eq!(summary.predicts, (CLIENTS * ROUNDS) as u64);
    assert_eq!(summary.errors, 0);
}

#[test]
fn concurrent_add_marker_and_predict_stay_consistent() {
    let reference = fresh_system();
    let markers_before = reference.type_map.len();
    let before: Vec<SymbolHints> = reference
        .predict_source(QUERY_SRC)
        .unwrap()
        .iter()
        .map(SymbolHints::of)
        .collect();
    let mut mutated = reference.clone();
    mutated
        .add_marker(
            BINDING_SRC,
            "flux_capacitor",
            "quantum.FluxCapacitor".parse().unwrap(),
        )
        .unwrap();
    let after: Vec<SymbolHints> = mutated
        .predict_source(QUERY_SRC)
        .unwrap()
        .iter()
        .map(SymbolHints::of)
        .collect();

    let (endpoint, handle) = start_server(ServeOptions::default());
    let mut threads = Vec::new();
    for _ in 0..4 {
        let endpoint = endpoint.clone();
        let before = before.clone();
        let after = after.clone();
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(&endpoint).unwrap();
            for _ in 0..5 {
                match client.predict(QUERY_SRC).unwrap() {
                    // The engine serializes jobs, so every reply is
                    // exactly the pre-add or post-add one-shot answer —
                    // never a torn in-between.
                    Response::Predictions(got) => {
                        assert!(got == before || got == after, "torn prediction: {got:?}")
                    }
                    other => panic!("expected predictions, got {other:?}"),
                }
            }
        }));
    }
    {
        let endpoint = endpoint.clone();
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(&endpoint).unwrap();
            match client
                .add_marker(BINDING_SRC, "flux_capacitor", "quantum.FluxCapacitor")
                .unwrap()
            {
                Response::MarkerAdded { markers } => assert_eq!(markers, markers_before + 1),
                other => panic!("expected marker-added, got {other:?}"),
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let (summary, served_system) = shutdown_and_join(&endpoint, handle);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.markers_added, 1);
    assert_eq!(served_system.type_map.len(), markers_before + 1);
}

#[test]
fn failures_are_typed_replies_not_panics() {
    let (endpoint, handle) = start_server(ServeOptions::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let cases: Vec<(Request, ErrorCode)> = vec![
        (
            Request::Predict {
                source: "def broken($):\n    pass\n".to_string(),
            },
            ErrorCode::Parse,
        ),
        (
            Request::AddMarker {
                source: "def broken($):\n    pass\n".to_string(),
                symbol: "x".to_string(),
                ty: "int".to_string(),
            },
            ErrorCode::Parse,
        ),
        (
            Request::AddMarker {
                source: "def f(x):\n    return x\n".to_string(),
                symbol: "no_such_symbol".to_string(),
                ty: "int".to_string(),
            },
            ErrorCode::SymbolNotFound,
        ),
        (
            Request::AddMarker {
                source: "def f(x):\n    return x\n".to_string(),
                symbol: "x".to_string(),
                ty: "List[[".to_string(),
            },
            ErrorCode::BadType,
        ),
    ];
    for (request, want) in cases {
        match client.roundtrip(&request).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, want, "for {request:?}"),
            other => panic!("expected {want:?} error for {request:?}, got {other:?}"),
        }
    }
    // After every failure the connection and server still work.
    assert!(matches!(
        client.predict(QUERY_SRC).unwrap(),
        Response::Predictions(_)
    ));
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn reindex_and_stats_report_the_map_state() {
    let (endpoint, handle) = start_server(ServeOptions::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let markers = match client.stats().unwrap() {
        Response::Stats(s) => {
            assert!(s.markers > 0);
            assert_eq!(s.dim, 16);
            s.markers
        }
        other => panic!("expected stats, got {other:?}"),
    };
    match client.reindex().unwrap() {
        Response::Reindexed { markers: m, index } => {
            assert_eq!(m, markers);
            assert_eq!(index, "sharded");
        }
        other => panic!("expected reindexed, got {other:?}"),
    }
    match client.stats().unwrap() {
        Response::Stats(s) => assert_eq!(s.index, "sharded"),
        other => panic!("expected stats, got {other:?}"),
    }
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn reindex_keeps_an_index_built_with_its_own_seed() {
    // Built like `typilus index --seed 5 --shards 2 --trees 4
    // --search-k 16` on a model trained at seed 0: the header, not
    // `config.space`/`config.seed`, holds the build parameters.
    let mut system = fresh_system();
    assert_ne!(system.config.seed, 5);
    let built = SpaceConfig {
        shards: 2,
        forest: RpForestConfig {
            trees: 4,
            leaf_size: RpForestConfig::default().leaf_size,
            search_k: 16,
        },
        ..SpaceConfig::default()
    };
    system
        .type_map
        .build_sharded_index(&built, 5, None)
        .unwrap();
    let file_id = system.type_map.space_index().unwrap().file_id();
    let sources = [
        QUERY_SRC,
        "def scale(values, factor):\n    return [v * factor for v in values]\n",
        "def greet(name):\n    message = 'hi ' + name\n    return message\n",
    ];
    let expected: Vec<Vec<SymbolHints>> = sources
        .iter()
        .map(|s| {
            let predictions = system.predict_source(s).unwrap();
            predictions.iter().map(SymbolHints::of).collect()
        })
        .collect();
    let (endpoint, handle) = start_server_with(system, ServeOptions::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let served = |client: &mut Client| -> Vec<Vec<SymbolHints>> {
        sources
            .iter()
            .map(|s| match client.predict(s).unwrap() {
                Response::Predictions(got) => got,
                other => panic!("expected predictions, got {other:?}"),
            })
            .collect()
    };
    assert_eq!(served(&mut client), expected);
    assert!(matches!(
        client.reindex().unwrap(),
        Response::Reindexed { .. }
    ));
    assert_eq!(served(&mut client), expected, "reindex changed replies");
    let (_, system) = shutdown_and_join(&endpoint, handle);
    let index = system.type_map.space_index().unwrap();
    assert_eq!(index.file_id(), file_id, "reindex changed the index");
    assert_eq!(system.type_map.index_params(), Some((built, 5)));
}

#[test]
fn serving_and_mutating_never_touch_saved_artifacts() {
    let dir = std::env::temp_dir().join(format!("typilus_serve_artifacts_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.typilus");
    let system = fresh_system();
    system.save(&model_path).unwrap();
    let bytes_before = std::fs::read(&model_path).unwrap();

    let mut loaded = TrainedSystem::load(&model_path).unwrap();
    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServeOptions::default(),
    )
    .unwrap();
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.run(&mut loaded));

    let mut client = Client::connect(&endpoint).unwrap();
    assert!(matches!(
        client.predict(QUERY_SRC).unwrap(),
        Response::Predictions(_)
    ));
    assert!(matches!(
        client
            .add_marker(BINDING_SRC, "flux_capacitor", "quantum.FluxCapacitor")
            .unwrap(),
        Response::MarkerAdded { .. }
    ));
    assert!(matches!(
        client.reindex().unwrap(),
        Response::Reindexed { .. }
    ));
    // One client vanishes mid-frame for good measure.
    {
        let mut rude = Client::connect(&endpoint).unwrap();
        rude.send_raw_bytes(&50u32.to_le_bytes()).unwrap();
    }
    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap();

    let bytes_after = std::fs::read(&model_path).unwrap();
    assert_eq!(
        bytes_before, bytes_after,
        "serving must never write to model artifacts"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_refuses_new_connections_but_serves_established_ones() {
    let (endpoint, handle) = start_server(ServeOptions::default());
    let mut established = Client::connect(&endpoint).unwrap();
    assert!(matches!(established.drain().unwrap(), Response::Draining));

    // The established connection keeps working through the drain.
    assert!(matches!(
        established.predict(QUERY_SRC).unwrap(),
        Response::Predictions(_)
    ));
    match established.stats().unwrap() {
        Response::Stats(s) => assert_eq!(s.health, Health::Draining),
        other => panic!("expected stats, got {other:?}"),
    }

    // A new connection is accepted at the TCP level, answered with one
    // typed `draining` frame, and dropped.
    let mut refused = Client::connect(&endpoint).unwrap();
    match refused.read_reply().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
        other => panic!("expected draining error, got {other:?}"),
    }
    assert!(
        refused.read_reply().is_err(),
        "refused connection should be closed"
    );

    // Shutdown still rides the established connection.
    assert!(matches!(established.shutdown().unwrap(), Response::Bye));
    let (summary, _) = handle.join().unwrap();
    assert!(summary.errors >= 1, "the refusal is counted as an error");
}

#[test]
fn batch_byte_cap_splits_batches_without_changing_replies() {
    let reference = fresh_system();
    let expected: Vec<SymbolHints> = reference
        .predict_source(QUERY_SRC)
        .unwrap()
        .iter()
        .map(SymbolHints::of)
        .collect();
    // A 1-byte cap forces every batch down to a single request.
    let (endpoint, handle) = start_server(ServeOptions {
        batch_bytes_max: 1,
        ..ServeOptions::default()
    });
    let mut threads = Vec::new();
    for _ in 0..6 {
        let endpoint = endpoint.clone();
        let expected = expected.clone();
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(&endpoint).unwrap();
            match client.predict(QUERY_SRC).unwrap() {
                Response::Predictions(got) => assert_eq!(got, expected),
                other => panic!("expected predictions, got {other:?}"),
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let (summary, _) = shutdown_and_join(&endpoint, handle);
    assert_eq!(summary.predicts, 6);
    assert_eq!(
        summary.largest_batch, 1,
        "the byte cap must split concurrent predicts into single-job batches"
    );
    assert_eq!(summary.errors, 0);
}

/// A hostile mock server: drops its first accepted connection without
/// replying, then speaks one well-formed reply per connection. Returns
/// the endpoint and a handle yielding how many connections it saw.
fn flaky_listener(replies: usize) -> (Endpoint, thread::JoinHandle<usize>) {
    use typilus_serve::protocol::{decode, encode};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
    let handle = thread::spawn(move || {
        let mut seen = 0usize;
        // First connection: accept and hang up without a reply.
        if let Ok((stream, _)) = listener.accept() {
            seen += 1;
            drop(stream);
        }
        for _ in 0..replies {
            let Ok((mut stream, _)) = listener.accept() else {
                break;
            };
            seen += 1;
            let Ok(payload) = typilus_serve::read_frame(&mut stream) else {
                continue;
            };
            let _request: Request = decode(&payload).unwrap();
            let bytes = encode(&Response::Draining).unwrap();
            typilus_serve::write_frame(&mut stream, &bytes).unwrap();
        }
        seen
    });
    (endpoint, handle)
}

#[test]
fn resilient_client_retries_idempotent_requests_after_reconnect() {
    let (endpoint, listener) = flaky_listener(1);
    let options = ClientOptions {
        retries: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        deadline_ms: 10_000,
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(&endpoint, options).unwrap();
    // First attempt lands on the dropped connection; the retry
    // reconnects and gets the reply.
    match client.stats().unwrap() {
        Response::Draining => {}
        other => panic!("expected the mock reply, got {other:?}"),
    }
    assert_eq!(
        listener.join().unwrap(),
        2,
        "exactly one reconnect should have happened"
    );
}

#[test]
fn resilient_client_never_retries_add_marker() {
    let (endpoint, listener) = flaky_listener(0);
    let options = ClientOptions {
        retries: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        deadline_ms: 10_000,
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(&endpoint, options).unwrap();
    // The dropped connection surfaces immediately: a lost add-marker
    // reply must not risk binding the marker twice.
    match client.add_marker(BINDING_SRC, "flux_capacitor", "quantum.FluxCapacitor") {
        Err(ClientError::Frame(_)) | Err(ClientError::Connect(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
    assert_eq!(
        listener.join().unwrap(),
        1,
        "a non-idempotent request must never reconnect"
    );
}

#[test]
fn clean_shutdown_returns_summary_and_removes_unix_socket() {
    let dir = std::env::temp_dir().join(format!("typilus_serve_sock_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("daemon.sock");
    let mut system = fresh_system();
    let server = Server::bind(&Endpoint::Unix(sock.clone()), ServeOptions::default()).unwrap();
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.run(&mut system));

    let mut client = Client::connect(&endpoint).unwrap();
    assert!(matches!(
        client.predict(QUERY_SRC).unwrap(),
        Response::Predictions(_)
    ));
    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    let summary = handle.join().unwrap();
    assert!(summary.requests >= 2);
    assert_eq!(summary.errors, 0);
    assert!(
        !sock.exists(),
        "unix socket should be removed on clean shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}
