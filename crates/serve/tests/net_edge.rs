//! Denial-of-service guards at the network front door, over loopback:
//! a tiny `ApOpen` cannot make the server compile an automaton of
//! millions of states, a wide correlation window pays one admission
//! token per engine job it queues, and silent sockets cannot hold
//! connection slots past the `Hello` deadline.

use memcim_bits::BitVec;
use memcim_serve::net::wire::read_frame;
use memcim_serve::net::{
    ErrorCode, FrameReadError, NetClient, NetConfig, NetServer, Response, TenantPolicy,
    MAX_FRAME_DEFAULT,
};
use memcim_serve::{ServeConfig, Service};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: &str = "edge-token";
/// Columns of one engine of the served geometry (2 banks × 32).
const WIDTH: usize = 64;

fn start_server(net: NetConfig) -> NetServer {
    let service = Arc::new(
        Service::try_start(ServeConfig::default().with_workers(1).with_mvp_geometry(8, 2, 32))
            .expect("service starts"),
    );
    NetServer::start(service, net.with_tenant(1, TenantPolicy::new(TOKEN))).expect("server starts")
}

/// The next frame the server sends on a raw socket, decoded.
fn next_response(stream: &mut TcpStream) -> Response {
    let body = read_frame(stream, MAX_FRAME_DEFAULT).expect("the server answers");
    Response::decode(&body).expect("a well-formed response")
}

fn error_code(response: &Response) -> Option<ErrorCode> {
    match response {
        Response::Error { code, .. } => Some(*code),
        _ => None,
    }
}

#[test]
fn oversized_patterns_are_refused_fast_and_the_connection_serves_on() {
    let server = start_server(NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("authenticates");
    let started = Instant::now();
    let long_alternation = format!("(a({})){{256}}", "|".repeat(1000));
    let deep_groups = format!("{}a{}", "(".repeat(50_000), ")".repeat(50_000));
    let stacked_stars = format!("a{}", "*".repeat(50_000));
    for pattern in [
        "(a{256}){64}",
        "(((a{256}){256}){256}){256}",
        // Operands of no position, or of few positions but many nodes.
        "((((){256}){256}){256}){256}",
        "((a{0}){256}){256}",
        long_alternation.as_str(),
        // Nesting deep enough to overflow a recursive pass's stack.
        deep_groups.as_str(),
        stacked_stars.as_str(),
    ] {
        let refused = client.ap_open(&[pattern]).expect_err(&pattern[..8]);
        assert_eq!(
            refused.server_code(),
            Some(ErrorCode::Compile),
            "{}…: {refused}",
            &pattern[..8]
        );
    }
    let many = ["(a{64}){40}"; 8];
    let refused = client.ap_open(&many).expect_err("a set past the cap in total");
    assert_eq!(refused.server_code(), Some(ErrorCode::Compile));
    assert!(started.elapsed() < Duration::from_secs(2), "refusals took {:?}", started.elapsed());

    let session = client.ap_open(&["ab+c", "x[yz]+"]).expect("a normal set still opens");
    client.ap_feed(session, b"zzabbbcxyz").expect("feeds");
    let matches = client.ap_finish(session).expect("finishes");
    // `abbbc` ends at 6; `xy` and `xyz` end at 8 and 9.
    assert_eq!(matches.matches, vec![(6, 0), (8, 1), (9, 1)]);
    server.shutdown();
}

#[test]
fn a_wide_correlation_window_pays_a_token_per_engine_block() {
    const QUOTA: u64 = 10;
    let server =
        start_server(NetConfig::default().with_tenant(2, TenantPolicy::new("q").with_quota(QUOTA)));
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(2, "q").expect("authenticates");
    let remaining = |client: &mut NetClient| client.usage().expect("usage").quota_remaining;
    let window = |steps: usize| -> Vec<BitVec> {
        let bits = |s: usize| (0..steps).map(|t| (t + s).is_multiple_of(3)).collect::<Vec<_>>();
        (0..2).map(|s| BitVec::from_bools(&bits(s))).collect()
    };

    let session = client.corr_open(2, 1).expect("opens");
    assert_eq!(remaining(&mut client), Some(QUOTA - 1), "the open is one job");
    client.corr_feed(session, &window(WIDTH)).expect("one block");
    assert_eq!(remaining(&mut client), Some(QUOTA - 2), "one engine-wide block");
    client.corr_feed(session, &window(3 * WIDTH + 8)).expect("four blocks");
    assert_eq!(remaining(&mut client), Some(QUOTA - 6), "⌈200 / 64⌉ blocks");

    let refused = client.corr_feed(session, &window(5 * WIDTH)).expect_err("five blocks");
    assert_eq!(refused.server_code(), Some(ErrorCode::QuotaExceeded), "{refused}");
    assert_eq!(remaining(&mut client), Some(QUOTA - 6), "the refusal charged nothing");
    client.corr_feed(session, &window(4 * WIDTH)).expect("exactly the rest");
    assert_eq!(remaining(&mut client), Some(0));
    server.shutdown();
}

#[test]
fn silent_sockets_lose_their_slot_at_the_hello_deadline() {
    let deadline = Duration::from_millis(300);
    let server =
        start_server(NetConfig::default().with_max_connections(2).with_hello_timeout(deadline));
    let addr: SocketAddr = server.local_addr();
    let opened = Instant::now();
    // Raw sockets with a read timeout, so a server that never answers
    // fails the test instead of hanging it.
    let raw = || {
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("sets a timeout");
        stream
    };
    let mut silent: Vec<TcpStream> = (0..2).map(|_| raw()).collect();

    // Both slots are held: a real tenant is turned away for now.
    let mut early = raw();
    assert_eq!(error_code(&next_response(&mut early)), Some(ErrorCode::OverCapacity));

    // At the deadline each silent socket gets one typed frame, then EOF.
    for stream in &mut silent {
        assert_eq!(error_code(&next_response(stream)), Some(ErrorCode::Unauthenticated));
        assert!(matches!(read_frame(stream, MAX_FRAME_DEFAULT), Err(FrameReadError::Closed)));
    }
    assert!(opened.elapsed() >= deadline, "closed before the deadline: {:?}", opened.elapsed());

    // The freed slots admit the real tenant (the accept loop reaps a
    // closed handler on the next accept; allow it a moment to exit).
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut client = loop {
        let mut client = NetClient::connect(addr).expect("connects");
        match client.hello(1, TOKEN) {
            Ok(()) => break client,
            Err(e) if e.server_code() == Some(ErrorCode::OverCapacity) => {
                assert!(Instant::now() < give_up, "the silent sockets still hold the slots");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    };
    // Authenticated connections are not bound by the Hello deadline.
    std::thread::sleep(deadline + Duration::from_millis(100));
    client.usage().expect("an authenticated connection outlives the deadline");
    server.shutdown();
}
