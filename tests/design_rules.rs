//! The design's rules, one row each: a rule names what must not come
//! back, says why (the DESIGN section that sets it out), and scans part
//! of the tree for it. `design_rules_hold` walks the tree and reports
//! every violation at once; `every_rule_can_fire` shows that each
//! scan's witness trips it and that each path it reads exists, so a
//! mistyped rule fails instead of passing forever. A new rule is a row.

use std::fs;
use std::path::{Path, PathBuf};

/// The part of a file a scan reads.
#[derive(PartialEq)]
enum Cut {
    Whole,
    /// Up to the first line holding `#[cfg(test)]`, as `sed '/#\[cfg(test)\]/,$d'` keeps it.
    Tests,
    /// A manifest's tables of normal dependencies, optional ones included.
    Deps,
}

type Strs = &'static [&'static str];

/// One search: the lines of the files under `roots` that a needle
/// matches. More than `budget` of them, summed over the roots, break
/// the rule. A root is a path from the repository's top, where a `*`
/// stands for any part of one file or directory name.
struct Scan {
    roots: Strs,
    needles: Strs,
    /// Text this scan must count; `budget + 1` copies of it break it.
    witness: &'static str,
    rs_only: bool,
    cut: Cut,
    ignore_case: bool,
    /// A file name the scan skips wherever it sits.
    except: &'static str,
    budget: usize,
    /// Search only a line holding `.0` and the `.1` lines after it,
    /// as `grep -A` prints them.
    near: Option<(&'static str, usize)>,
}

/// A scan of whole files of every kind, where nothing may match.
#[rustfmt::skip]
const fn scan(roots: Strs, needles: Strs, witness: &'static str) -> Scan {
    Scan { roots, needles, witness, rs_only: false, cut: Cut::Whole, ignore_case: false, except: "", budget: 0, near: None }
}

struct Rule {
    name: &'static str,
    why: &'static str,
    scans: &'static [Scan],
}

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { name: "The engine crate stays free of I/O", why: "DESIGN §9: the engine performs no I/O; sockets live in mcss-server's UdpServer",
        scans: &[scan(&["crates/remicss/src"], &["UdpSocket", "std::net"], "let socket = std::net::UdpSocket::bind(addr)?;")] },
    Rule { name: "Codec seam stays closed", why: "DESIGN §12: mcss-remicss reaches Shamir and GF(256) only through mcss-codec; outside tests nothing names a codec variant",
        scans: &[Scan { cut: Cut::Deps, ..scan(&["crates/remicss/Cargo.toml"], &["mcss-shamir", "mcss-gf256"], "[dependencies]\nmcss-gf256 = { path = \"../gf256\" }") },
                 Scan { rs_only: true, cut: Cut::Tests, ..scan(&["crates/remicss/src", "crates/server/src"], &["CodecId::Shamir", "CodecId::Xor2d"], "CodecId::Xor2d") }] },
    Rule { name: "Two vendored stand-ins stay gone", why: "DESIGN §6: the second frame type (bytes) and the old bench harness (criterion) were removed, not swapped",
        scans: &[scan(&["Cargo.lock"], &["^name = \"bytes\"", "^name = \"criterion\""], "name = \"criterion\"")] },
    Rule { name: "Hot-path containers and counters", why: "DESIGN §10: integer keys hash as integers (IntMap), SeqTable is a direction's one keyed store, counters have one writer",
        scans: &[scan(&["crates/remicss/src", "crates/server/src"], &["HashMap<u32", "HashMap<u64", "HashSet<u"], "let seen: HashSet<u64> = HashSet::new();"),
                 Scan { cut: Cut::Tests, ..scan(&["crates/remicss/src/reassembly.rs"], &["IntMap<u64", "HashMap"], "by_seq: IntMap<u64, usize>,") },
                 scan(&["crates/server/src/shard.rs", "crates/server/src/stats.rs", "crates/remicss/src"], &["fetch_"], "self.sent.fetch_add(1, Relaxed);")] },
    Rule { name: "All `unsafe` of the server lives in sys.rs", why: "DESIGN §11: the syscall bindings, and every unsafe block, sit behind the safe types of sys.rs",
        scans: &[Scan { rs_only: true, except: "sys.rs", ..scan(&["crates/server/src"], &["unsafe"], "let n = unsafe { libc::recvmmsg(fd, msgs, len, 0, null) };") }] },
    Rule { name: "One socket layout", why: "DESIGN §11: each shard owns a connected socket pair per channel: no shared-port group or cross-shard wakeup",
        scans: &[Scan { ignore_case: true, ..scan(&["crates"], &["reuseport", "eventfd", "doorbell"], "setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one);") }] },
    Rule { name: "Shards share nothing", why: "DESIGN §10: a frame read by the wrong shard goes to its owner in place: no queue, capacity knob, lock or channel",
        scans: &[scan(&["crates"], &["BoundedQueue", "handoff_capacity"], "handoff: BoundedQueue<Vec<u8>>,"),
                 scan(&["crates/server/src/shard.rs"], &["Mutex", "mpsc"], "let (tx, rx) = std::sync::mpsc::channel();")] },
    Rule { name: "Scratch belongs to the host", why: "DESIGN §10: symbols are scheduled and split in the host's one Scratch, and a shard drains actions per event",
        scans: &[scan(&["crates/server/src"], &["flush_ready", "in_ready", "ready_scratch"], "self.flush_ready(now);"),
                 scan(&["crates"], &["split_scratch"], "split_scratch: Vec<u8>,")] },
    Rule { name: "Partials belong to the host", why: "DESIGN §9: partial symbols are entries of the host's one slab, each table linking its own by deadline",
        scans: &[scan(&["crates/remicss/src"], &["trim_order", "ORDER_SLACK", "order_base", "free_partial"], "const ORDER_SLACK: usize = 64;")] },
    Rule { name: "Parked shares live in their partial", why: "DESIGN §9: a parked share's bytes are its partial's; the pool has one shape (take/put), no handle",
        scans: &[scan(&["crates/*/src"], &["BufHandle", "fn acquire", "fn release"], "pub fn acquire(&mut self, len: usize) -> BufHandle {")] },
    Rule { name: "The simulator sends one way", why: "DESIGN §3: a frame is the Vec<u8> Context::send was handed: no frame type, second send, tracer or idle knob",
        scans: &[scan(&["crates/netsim/src"], &["struct Frame", "fn try_send", "SendOutcome", "enable_trace", "with_overhead_bytes", "channel_asymmetric",
                                             "mod trace"], "pub fn try_send(&mut self, frame: Frame) -> SendOutcome {")] },
    Rule { name: "Readiness is the host's", why: "DESIGN §9: a host sets its channels' backlogs and lends them to every call: no session copy, no refresh event",
        scans: &[scan(&["crates"], &["ChannelWritable", "backlogs_a", "channel_writable"], "Event::ChannelWritable { channel, backlog } => {")] },
    Rule { name: "The `unsafe` budget of crates/server/src/sys.rs (10 lines)", why: "DESIGN §11: epoll, the batch types and two socket options",
        scans: &[Scan { budget: 10, ..scan(&["crates/server/src/sys.rs"], &["unsafe"], "unsafe { libc::close(self.fd) };") }] },
    Rule { name: "The `unsafe` budget of mcss-gf256 (54 lines)", why: "DESIGN §7: raw loads and stores are written once, in arch::multi_kernels! and ctr_kernel!",
        scans: &[Scan { budget: 54, ..scan(&["crates/gf256/src"], &["unsafe"], "unsafe { _mm256_storeu_si256(out, v) };") }] },
    Rule { name: "Shares never draw from the model stream", why: "DESIGN §6a: shares come from the share stream, never the seeded StdRng anyone with the seed replays",
        scans: &[Scan { rs_only: true, cut: Cut::Tests, near: Some(("split_into(", 8)),
                        ..scan(&["crates/remicss/src", "crates/server/src"], &["\\brng\\b", "StdRng", "rand::rng"], "codec.split_into(\n    data,\n    &mut rng,") }] },
    Rule { name: "No kernel wider than 256 bits", why: "DESIGN §7: the ledger admits a width, not a kernel row; 512 bits read higher end to end",
        scans: &[scan(&["crates"], &["avx512", "_mm512", "__m512"], "if is_x86_feature_detected!(\"avx512bw\") {")] },
    Rule { name: "One LP builder, one metric path", why: "DESIGN §7: the LPs have one builder (lp_schedule::solve), a subset metric one path; a twin is a fork",
        scans: &[Scan { rs_only: true, cut: Cut::Tests, budget: 1, ..scan(&["crates/core/src"], &["Problem::minimize"], "Problem::minimize(&costs)") },
                 Scan { rs_only: true, ..scan(&["crates"], &["fn \\w+_cached\\b", "fn \\w+_with_cache\\b"], "pub fn metrics_with_cache(&self) -> Metrics {") }] },
    Rule { name: "No hand-written vector loop in the x86 kernel files", why: "DESIGN §7: a vector loop beside arch::multi_kernels! is a fork of it",
        scans: &[scan(&["crates/gf256/src/arch/x86*.rs"], &["while i < main"], "while i < main {")] },
    Rule { name: "One build", why: "DESIGN §8: telemetry is the product, not a feature; a telemetry feature or a cfg on it is a second build",
        scans: &[scan(&["crates", "examples", "tests"], &["feature = \"telemetry\""], "#[cfg(feature = \"telemetry\")]"),
                 scan(&["crates/*/Cargo.toml"], &["^telemetry *="], "telemetry = [\"mcss-obs/enabled\"]")] },
];

/// Whether `needle` matches `line`. A needle is literal text but for
/// the marks the greps it replaces used: a leading `^` anchors it at
/// the line's start, `\b` is a word edge, `\w+` a run of word
/// characters, and `c*` any number of the character `c`.
fn matches(needle: &str, line: &str) -> bool {
    let (s, pat) = (line.as_bytes(), needle.as_bytes());
    match pat.strip_prefix(b"^") {
        Some(anchored) => at(anchored, s, 0),
        None if !needle.contains(['\\', '*']) => line.contains(needle),
        None => (0..=s.len()).any(|i| at(pat, s, i)),
    }
}

fn at(pat: &[u8], s: &[u8], i: usize) -> bool {
    let word = |j: usize| j < s.len() && (s[j].is_ascii_alphanumeric() || s[j] == b'_');
    match pat {
        [] => true,
        [b'\\', b'b', rest @ ..] => (i > 0 && word(i - 1)) != word(i) && at(rest, s, i),
        [b'\\', b'w', b'+', rest @ ..] => (i + 1..=s.len())
            .take_while(|&j| word(j - 1))
            .any(|j| at(rest, s, j)),
        [c, b'*', rest @ ..] => (i..=s.len())
            .take_while(|&j| j == i || s[j - 1] == *c)
            .any(|j| at(rest, s, j)),
        [c, rest @ ..] => s.get(i) == Some(c) && at(rest, s, i + 1),
    }
}

/// The lines of `text` that `scan` counts, numbered from 1.
fn hits<'t>(scan: &Scan, text: &'t str) -> Vec<(usize, &'t str)> {
    let (mut in_deps, mut since_anchor) = (false, usize::MAX);
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if scan.cut == Cut::Tests && line.contains("#[cfg(test)]") {
            break;
        }
        if line.starts_with('[') {
            in_deps = line.contains("dependencies") && !line.contains("-dependencies");
        }
        since_anchor = since_anchor.saturating_add(1);
        if scan.near.is_some_and(|(anchor, _)| line.contains(anchor)) {
            since_anchor = 0;
        }
        let lower = scan.ignore_case.then(|| line.to_ascii_lowercase());
        let seen = lower.as_deref().unwrap_or(line);
        if (scan.cut != Cut::Deps || in_deps)
            && scan.near.is_none_or(|(_, after)| since_anchor <= after)
            && scan.needles.iter().any(|needle| matches(needle, seen))
        {
            found.push((i + 1, line));
        }
    }
    found
}

fn repo() -> PathBuf {
    let facade = Path::new(env!("CARGO_MANIFEST_DIR"));
    facade.join("../..").canonicalize().unwrap()
}

/// The files under one root of `scan`, in name order, this file left out.
fn files(repo: &Path, root: &str, scan: &Scan) -> Vec<PathBuf> {
    let mut paths = vec![repo.to_path_buf()];
    for part in root.split('/') {
        let fits = |name: &str| match part.split_once('*') {
            Some((h, t)) => {
                name.len() >= part.len() - 1 && name.starts_with(h) && name.ends_with(t)
            }
            None => name == part,
        };
        let under = paths.iter().flat_map(|dir| entries(dir));
        paths = under.filter(|p| fits(&name(p))).collect();
    }
    let mut found = Vec::new();
    while let Some(path) = paths.pop() {
        match path.is_dir() {
            true => paths.extend(entries(&path)),
            false => found.push(path),
        }
    }
    let this = repo.join("tests/design_rules.rs");
    let kind = |name: String| name != scan.except && (!scan.rs_only || name.ends_with(".rs"));
    found.retain(|p| *p != this && kind(name(p)));
    found.sort();
    found
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let entries = fs::read_dir(dir).into_iter().flatten();
    entries.map(|entry| entry.unwrap().path()).collect()
}

fn name(path: &Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

#[test]
fn design_rules_hold() {
    let repo = repo();
    let mut report = String::new();
    for rule in RULES {
        for scan in rule.scans {
            let mut found = Vec::new();
            for path in scan.roots.iter().flat_map(|root| files(&repo, root, scan)) {
                let text = String::from_utf8_lossy(&fs::read(&path).unwrap()).into_owned();
                let shown = path.strip_prefix(&repo).unwrap().display();
                for (n, line) in hits(scan, &text) {
                    found.push(format!("{}: {shown}:{n}: {}\n", rule.name, line.trim()));
                }
            }
            if found.len() > scan.budget {
                report += &format!("{}    why: {}\n", found.concat(), rule.why);
            }
        }
    }
    assert!(report.is_empty(), "design rules broken:\n{report}");
}

#[test]
fn every_rule_can_fire() {
    let repo = repo();
    for rule in RULES {
        for scan in rule.scans {
            let copies = vec![scan.witness; scan.budget + 1].join("\n");
            let tripped = hits(scan, &copies).len() > scan.budget;
            let witness = scan.witness;
            assert!(tripped, "{}: {witness:?} does not trip it", rule.name);
            let dead = scan
                .roots
                .iter()
                .find(|root| files(&repo, root, scan).is_empty());
            assert!(dead.is_none(), "{}: {dead:?} names no file", rule.name);
        }
    }
}
