//! The protocol's text decoders fail closed. Valid request and reply
//! texts are damaged by deletions, insertions (non-ASCII included),
//! truncations and byte swaps; `Request::decode` and `Reply::decode`
//! must never panic on the result, no allocation may outgrow the input
//! by more than the bound the frame scanners use, and whatever decodes
//! must re-encode to a canonical text that decodes to itself.

use proptest::prelude::*;
use small_core::LptStats;
use small_serve::protocol::{NodeRole, StatsBody};
use small_serve::{Reply, Request};
use std::borrow::Cow;

mod peak_alloc;
use peak_alloc::PEAK;

const REQUESTS: [&str; 15] = [
    "(hello 3 client)",
    "(hello 3 replica)",
    "(open)",
    "(open 77)",
    "(eval 4 (add 1 2))",
    "(seval 4 9 (setq acc (cons 1 acc)) (car acc))",
    "(eval 0 (prog (x) (setq x (quote (a (b . 7) c))) (return x)))",
    "(ledger 2)",
    "(digest 2)",
    "(stats)",
    "(metrics)",
    "(close 3)",
    "(close 3 5)",
    "(ping)",
    "(pull 12)",
];

/// One canonical text per reply shape.
fn replies() -> Vec<String> {
    // The retired words (ledger 17–19, event counts 20–21) are zero.
    let mut counts = [5; 22];
    counts[20..].fill(0);
    let stats = StatsBody {
        sessions: 3,
        evictions: 1,
        resumes: 2,
        requests: 40,
        counts,
    };
    let mut ledger = [7; 20];
    ledger[17..].fill(0);
    [
        Reply::Hello {
            version: 3,
            node: NodeRole::Standby,
        },
        Reply::Opened { id: 9 },
        Reply::Value {
            text: "(a (b . 7) c)".to_string(),
        },
        Reply::Ledger(Box::new(LptStats::from_words(&ledger).unwrap())),
        Reply::Digest { digest: u64::MAX },
        Reply::Stats(Box::new(stats)),
        Reply::Metrics {
            deterministic: "{\"requests\":2}".to_string(),
            volatile: String::new(),
        },
        Reply::Closed { occupancy: 0 },
        Reply::Pong {
            lsn: 12,
            node: NodeRole::Primary,
        },
        Reply::Draining,
        Reply::Frames {
            next: 4,
            bytes: vec![0, 1, 0xfe, 0xff],
        },
        Reply::Err {
            class: Cow::Borrowed("vm"),
            code: Cow::Borrowed("type-error"),
            detail: vec!["car".to_string()],
        },
    ]
    .iter()
    .map(Reply::encode)
    .collect()
}

/// One edit of a text's bytes; positions wrap around its length.
#[derive(Debug, Clone)]
enum Edit {
    Delete(usize, usize),
    Insert(usize, String),
    Truncate(usize),
    Swap(usize, usize),
    Replace(usize, u8),
}

fn edit() -> impl Strategy<Value = Edit> {
    let text = prop_oneof![
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000)
            .unwrap_or(char::REPLACEMENT_CHARACTER)
            .to_string()),
        prop::sample::select(vec![
            "(",
            ")",
            " ",
            ".",
            "'",
            "-",
            "0",
            "18446744073709551616",
            "h",
            "d",
            "ok",
            "err",
            "é",
            "€",
            "𝄞",
            "\u{0}",
            "\u{fffd}",
        ])
        .prop_map(str::to_string),
    ];
    prop_oneof![
        (any::<usize>(), 1usize..6).prop_map(|(at, n)| Edit::Delete(at, n)),
        (any::<usize>(), text).prop_map(|(at, s)| Edit::Insert(at, s)),
        any::<usize>().prop_map(Edit::Truncate),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::Swap(a, b)),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Replace(at, b)),
    ]
}

/// Apply `edits` to `text`; bytes that stop being UTF-8 become U+FFFD.
fn damage(text: &str, edits: &[Edit]) -> String {
    let mut b = text.as_bytes().to_vec();
    for e in edits {
        let n = b.len();
        match e {
            Edit::Delete(at, k) if n > 0 => {
                let at = at % n;
                b.drain(at..(at + k).min(n));
            }
            Edit::Insert(at, s) => {
                let at = at % (n + 1);
                b.splice(at..at, s.bytes());
            }
            Edit::Truncate(at) => b.truncate(at % (n + 1)),
            Edit::Swap(x, y) if n > 0 => b.swap(x % n, y % n),
            Edit::Replace(at, v) if n > 0 => b[at % n] = *v,
            _ => {}
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Run `decode` on `text` and check the allocation bound the frame
/// scanners use: a length or count read from the text must not size an
/// allocation.
fn bounded<T>(text: &str, decode: impl Fn(&str) -> T) -> T {
    PEAK.set(0);
    let got = decode(text);
    let (peak, len) = (PEAK.get(), text.len());
    assert!(
        peak <= 8 * len + 512,
        "{len} bytes drove a {peak}-byte allocation: {text:?}"
    );
    got
}

fn check_request(text: &str) {
    match bounded(text, Request::decode) {
        Ok(req) => {
            let canon = req.encode();
            let again = Request::decode(&canon).unwrap_or_else(|e| {
                panic!("{text:?} decoded, but its encoding {canon:?} fails: {e:?}")
            });
            assert_eq!(again.encode(), canon, "{text:?}");
        }
        // The refusal is itself a reply the client must be able to read.
        Err(reply) => {
            let wire = reply.encode();
            assert_eq!(Reply::decode(&wire), Some(reply), "{text:?} -> {wire}");
        }
    }
}

fn check_reply(text: &str) {
    if let Some(reply) = bounded(text, Reply::decode) {
        let canon = reply.encode();
        let again = Reply::decode(&canon)
            .unwrap_or_else(|| panic!("{text:?} decoded, but its encoding {canon:?} fails"));
        assert_eq!(again.encode(), canon, "{text:?}");
    }
}

#[test]
fn undamaged_texts_decode_canonically() {
    for text in REQUESTS {
        assert_eq!(
            Request::decode(text).map(|r| r.encode()),
            Ok(text.to_string())
        );
    }
    for text in replies() {
        assert_eq!(Reply::decode(&text).map(|r| r.encode()), Some(text));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn damaged_requests_fail_closed(
        pick in any::<usize>(),
        edits in prop::collection::vec(edit(), 1..5),
    ) {
        check_request(&damage(REQUESTS[pick % REQUESTS.len()], &edits));
    }

    #[test]
    fn damaged_replies_fail_closed(
        pick in any::<usize>(),
        edits in prop::collection::vec(edit(), 1..5),
    ) {
        let texts = replies();
        check_reply(&damage(&texts[pick % texts.len()], &edits));
    }
}
