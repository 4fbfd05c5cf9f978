//! `LogService` against a reference log: seeded sequences of appends,
//! conditional appends, point reads, trims and stream replays, one awaited
//! call at a time, must return exactly what the naive [`RefLog`] returns —
//! every seqnum, outcome and payload — and leave the same live records,
//! bytes and streams, at one and four shards, with and without group
//! commit.
//!
//! Bounds are drawn where resolution can go wrong: live members of the
//! stream, members already trimmed, their neighbours, seqnums of other
//! streams or never assigned, [`SeqNum::ZERO`] and [`SeqNum::MAX`].
//! Records carry up to six tags, duplicates included, routed to different
//! shards.
//!
//! Two kinds of step issue several appends at one instant, so that they
//! share a group-commit batch: plain appends, whose seqnums replayed in
//! order into the reference must come out the same, and peers racing one
//! conditional append, of which exactly one wins. A `trim_many` is also
//! checked while in flight: until its round trip ends, the log is unchanged.
//! And reads race trims: a point or stream read whose round trip straddles
//! a `trim_many` landing must answer as the log stood before the trim or
//! after it (a stream read: before it, less the records it reclaimed).

mod ref_log;

use hm_common::latency::LatencyModel;
use hm_common::{NodeId, SeqNum, Tag};
use hm_sharedlog::{shard_for_tag, CondAppendOutcome, LogConfig, LogRecord, LogService, Topology};
use hm_substrate::sim::Sim;
use hm_substrate::{Ctx, Time};
use ref_log::RefLog;

/// `(shards, batch_max_records)` of every configuration checked.
const CONFIGS: [(u8, usize); 4] = [(1, 1), (1, 16), (4, 1), (4, 16)];

/// Seeded sequences per configuration, and operations per sequence.
const SEEDS: u64 = 6;
const OPS: usize = 400;

/// The tags records are drawn from. Few, so streams are long and records
/// share them.
const TAGS: [Tag; 6] = [Tag(11), Tag(12), Tag(13), Tag(14), Tag(15), Tag(16)];

/// A tag no record carries.
const UNUSED: Tag = Tag(99);

/// SplitMix64: the sequences' own generator, apart from the simulation's.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.below(items.len())])
    }

    fn tag(&mut self) -> Tag {
        TAGS[self.below(TAGS.len())]
    }

    /// One to six tags, drawn with replacement, so duplicates occur.
    fn tags(&mut self) -> Vec<Tag> {
        let n = 1 + self.below(6);
        (0..n).map(|_| self.tag()).collect()
    }

    /// A bound for an operation on `tag`'s stream.
    fn bound(&mut self, reference: &RefLog, tag: Tag) -> SeqNum {
        let member = |draw: &mut Draw| {
            draw.pick(reference.live(tag))
                .or_else(|| draw.pick(reference.trimmed(tag)))
                .unwrap_or(SeqNum::ZERO)
        };
        match self.below(8) {
            0 => self.pick(reference.live(tag)).unwrap_or(SeqNum::MAX),
            1 => self.pick(reference.trimmed(tag)).unwrap_or(SeqNum::ZERO),
            2 => SeqNum(member(self).0.saturating_sub(1)),
            3 => SeqNum(member(self).0 + 1),
            4 => SeqNum(self.next() % (reference.head().0 + 2)),
            5 => SeqNum::ZERO,
            6 => SeqNum::MAX,
            _ => member(self),
        }
    }

    fn payload(&mut self, op: usize) -> String {
        format!("{op}:{}", "x".repeat(self.below(24)))
    }
}

/// How often the sequences reached each outcome, so a vacuous sequence
/// cannot pass: `[reads that found a record, reads that found none,
/// conditional appends won, conditional appends lost, records reclaimed]`.
type Reached = [usize; 5];

fn record(found: Option<LogRecord<String>>) -> Option<(SeqNum, String)> {
    found.map(|r| (r.seqnum, r.payload))
}

/// Live records and every stream, service against reference.
fn assert_same_state(l: &LogService<String>, reference: &RefLog, at: &str) {
    assert_eq!(l.live_records(), reference.live_records(), "{at}");
    assert_eq!(l.current_bytes(), reference.current_bytes() as f64, "{at}");
    for tag in TAGS.into_iter().chain([UNUSED]) {
        assert_eq!(
            l.peek_stream(tag),
            reference.live(tag),
            "stream {tag:?}, {at}"
        );
    }
}

/// An append of a concurrent step: its tags, its payload and, for a
/// conditional append, the tag and position it is conditioned on.
type Append = (Vec<Tag>, String, Option<(Tag, usize)>);

/// Issues every append at this instant, each from its own task and node,
/// and returns their outcomes in issue order.
async fn concurrently(
    ctx: &Ctx,
    l: &LogService<String>,
    appends: &[Append],
) -> Vec<CondAppendOutcome> {
    let handles: Vec<_> = appends
        .iter()
        .enumerate()
        .map(|(i, (tags, payload, cond))| {
            let (l, tags, payload, cond) = (l.clone(), tags.clone(), payload.clone(), *cond);
            let node = NodeId(i as u32);
            ctx.spawn(async move {
                match cond {
                    Some((tag, pos)) => l.cond_append(node, tags, payload, tag, pos).await,
                    None => CondAppendOutcome::Appended(l.append(node, tags, payload).await),
                }
            })
        })
        .collect();
    let mut outcomes = Vec::with_capacity(handles.len());
    for handle in handles {
        outcomes.push(handle.await);
    }
    outcomes
}

/// Runs one seeded sequence on a fresh log and checks every step.
fn run(shards: u8, batch: usize, seed: u64) -> Reached {
    let at = format!("{shards} shard(s), batch {batch}, seed {seed}");
    let mut sim = Sim::new(seed);
    let config = LogConfig {
        topology: Topology::sharded(shards),
        sequencer_capacity: None,
        batch_max_records: batch,
    };
    let l: LogService<String> =
        LogService::new(sim.ctx(), LatencyModel::uniform_test_model(), config);
    let mut reference = RefLog::new();
    let mut draw = Draw(seed ^ (u64::from(shards) << 32) ^ batch as u64);
    let ctx = sim.ctx();
    sim.block_on(async move {
        let mut reached = Reached::default();
        for op in 0..OPS {
            let node = NodeId(draw.below(3) as u32);
            let at = format!("{at}, op {op}");
            match draw.below(23) {
                0..=5 => {
                    let (tags, payload) = (draw.tags(), draw.payload(op));
                    let sn = l.append(node, tags.clone(), payload.clone()).await;
                    assert_eq!(sn, reference.append(&tags, payload), "append, {at}");
                }
                6..=8 => {
                    let (tags, payload) = (draw.tags(), draw.payload(op));
                    let cond_tag = draw.pick(&tags).expect("at least one tag");
                    let len = reference.len_total(cond_tag);
                    let cond_pos = if draw.below(2) == 0 {
                        len
                    } else {
                        draw.below(len + 2)
                    };
                    let got = l
                        .cond_append(node, tags.clone(), payload.clone(), cond_tag, cond_pos)
                        .await;
                    let want = reference.cond_append(&tags, payload, cond_tag, cond_pos);
                    reached[2 + usize::from(matches!(want, CondAppendOutcome::Conflict(_)))] += 1;
                    assert_eq!(got, want, "cond_append at {cond_pos} of {cond_tag:?}, {at}");
                }
                9..=11 => {
                    let tag = draw.tag();
                    let max = draw.bound(&reference, tag);
                    let got = record(l.read_prev(node, tag, max).await);
                    reached[usize::from(got.is_none())] += 1;
                    assert_eq!(
                        got,
                        reference.read_prev(tag, max),
                        "read_prev {tag:?} {max:?}, {at}"
                    );
                }
                12..=14 => {
                    let tag = draw.tag();
                    let min = draw.bound(&reference, tag);
                    let got = record(l.read_next(node, tag, min).await);
                    reached[usize::from(got.is_none())] += 1;
                    assert_eq!(
                        got,
                        reference.read_next(tag, min),
                        "read_next {tag:?} {min:?}, {at}"
                    );
                }
                15 | 16 => {
                    let tag = draw.tag();
                    let upto = draw.bound(&reference, tag);
                    l.trim(node, tag, upto).await;
                    reference.trim(tag, upto);
                }
                17 => {
                    let trims: Vec<(Tag, SeqNum)> = (0..1 + draw.below(4))
                        .map(|_| {
                            let tag = draw.tag();
                            (tag, draw.bound(&reference, tag))
                        })
                        .collect();
                    let in_flight = {
                        let (l, trims) = (l.clone(), trims.clone());
                        ctx.spawn(async move { l.trim_many(&trims).await })
                    };
                    ctx.yield_now().await;
                    assert_same_state(&l, &reference, &format!("trim_many in flight, {at}"));
                    in_flight.await;
                    for &(tag, upto) in &trims {
                        reference.trim(tag, upto);
                    }
                }
                18 => {
                    let appends: Vec<_> = (0..2 + draw.below(5))
                        .map(|i| (draw.tags(), draw.payload(op * 8 + i), None))
                        .collect();
                    let outcomes = concurrently(&ctx, &l, &appends).await;
                    let mut order: Vec<(SeqNum, usize)> = outcomes
                        .iter()
                        .enumerate()
                        .map(|(i, outcome)| match outcome {
                            CondAppendOutcome::Appended(sn) => (*sn, i),
                            CondAppendOutcome::Conflict(_) => panic!("{outcome:?}, {at}"),
                        })
                        .collect();
                    order.sort_unstable();
                    for (sn, i) in order {
                        let (tags, payload, _) = &appends[i];
                        let want = reference.append(tags, payload.clone());
                        assert_eq!(sn, want, "concurrent append {i}, {at}");
                    }
                    assert_same_state(&l, &reference, &at);
                }
                19 => {
                    let (tags, payload) = (draw.tags(), draw.payload(op));
                    let cond_tag = draw.pick(&tags).expect("at least one tag");
                    let pos = reference.len_total(cond_tag);
                    let peers = vec![
                        (tags.clone(), payload.clone(), Some((cond_tag, pos)));
                        2 + draw.below(3)
                    ];
                    let outcomes = concurrently(&ctx, &l, &peers).await;
                    // The first peer to sequence wins; every later one conflicts with it.
                    let won = reference.cond_append(&tags, payload.clone(), cond_tag, pos);
                    let lost = reference.cond_append(&tags, payload, cond_tag, pos);
                    let wins = outcomes.iter().filter(|&&o| o == won).count();
                    assert_eq!(wins, 1, "{outcomes:?} against {won:?}, {at}");
                    assert!(
                        outcomes.iter().all(|&o| o == won || o == lost),
                        "{outcomes:?} against {lost:?}, {at}"
                    );
                    reached[2] += 1;
                    reached[3] += outcomes.len() - 1;
                }
                20 => {
                    // The trim lands one append round trip (1 ms) after it
                    // is issued; the read, issued 0.95 ms in, picks before
                    // it and fetches after it.
                    let (tag, kind) = (draw.tag(), draw.below(3));
                    let bound = draw.bound(&reference, tag);
                    let trims: Vec<(Tag, SeqNum)> = (0..1 + draw.below(3))
                        .map(|i| {
                            let other = if i == 0 { tag } else { draw.tag() };
                            (other, draw.bound(&reference, other))
                        })
                        .collect();
                    let point = |reference: &RefLog| match kind {
                        0 => reference.read_prev(tag, bound),
                        _ => reference.read_next(tag, bound),
                    };
                    let (before, stream) = (point(&reference), reference.replay(tag).0);
                    let trim = {
                        let (l, trims) = (l.clone(), trims.clone());
                        ctx.spawn(async move { l.trim_many(&trims).await })
                    };
                    let (l2, ctx2) = (l.clone(), ctx.clone());
                    let read = ctx.spawn(async move {
                        ctx2.sleep(Time::from_micros(950)).await;
                        match kind {
                            0 => record(l2.read_prev(node, tag, bound).await)
                                .into_iter()
                                .collect(),
                            1 => record(l2.read_next(node, tag, bound).await)
                                .into_iter()
                                .collect(),
                            _ => l2
                                .read_stream(node, tag)
                                .await
                                .into_iter()
                                .map(|r| (r.seqnum, r.payload))
                                .collect::<Vec<_>>(),
                        }
                    });
                    let got = read.await;
                    trim.await;
                    for &(tag, upto) in &trims {
                        reference.trim(tag, upto);
                    }
                    let at = format!("read {kind} of {tag:?} at {bound:?} racing {trims:?}, {at}");
                    if kind == 2 {
                        let want: Vec<_> = stream
                            .into_iter()
                            .filter(|(sn, _)| reference.is_live(*sn))
                            .collect();
                        assert_eq!(got, want, "{at}");
                    } else {
                        let after = point(&reference);
                        assert!(
                            got.first() == before.as_ref() || got.first() == after.as_ref(),
                            "{got:?} against {before:?} or {after:?}, {at}"
                        );
                    }
                }
                _ => {
                    let tag = draw.tag();
                    let (records, stats) = l.replay_stream(node, tag).await;
                    let (want, trimmed) = reference.replay(tag);
                    let got: Vec<_> = records.into_iter().map(|r| (r.seqnum, r.payload)).collect();
                    assert_eq!(got, want, "replay_stream {tag:?}, {at}");
                    assert_eq!(
                        (stats.replayed, stats.trimmed),
                        (want.len() as u64, trimmed),
                        "{at}"
                    );
                    assert_eq!(
                        stats.pending_flushed, 0,
                        "nothing is parked between calls, {at}"
                    );
                }
            }
        }
        reached[4] += (reference.head().0 - 1) as usize - reference.live_records();
        assert_eq!(l.head_seqnum(), reference.head(), "{at}");
        assert_same_state(&l, &reference, &at);
        reached
    })
}

#[test]
fn the_tags_span_shards() {
    let mut homes: Vec<u8> = TAGS.iter().map(|&tag| shard_for_tag(tag, 4).0).collect();
    homes.sort_unstable();
    homes.dedup();
    assert!(homes.len() >= 3, "tags land on shards {homes:?}");
}

#[test]
fn log_service_matches_the_reference_log() {
    for (shards, batch) in CONFIGS {
        let mut reached = Reached::default();
        for seed in 0..SEEDS {
            let run = run(shards, batch, seed);
            reached
                .iter_mut()
                .zip(run)
                .for_each(|(total, n)| *total += n);
        }
        let each = SEEDS as usize * OPS / 100;
        assert!(
            reached.iter().all(|&n| n >= each),
            "{shards} shard(s), batch {batch}: {reached:?}"
        );
    }
}
