//! `adhoc_churn`: the plan cache and the catalog used the other way round.
//! The statement universe is five times the cache's capacity, half the
//! draws miss, and every 500th operation is an `INSERT` that takes the
//! catalog write lock, rebuilds indexes and invalidates every cached plan.

use crate::check::{Digest, Tally};
use crate::quiet::Gate;
use crate::replica::Replica;
use crate::shapes::{self, Op, Shape};
use crate::span::ROOT;
use crate::suite::Side;
use crate::workload::{
    segment_ranges, time_us, Layers, Sample, Segment, Timed, Traced, World, TRACED_PASSES,
};
use mylite::{CacheOutcome, SessionOpts};
use taurus_workloads::gen::SmallRng;

/// Sample key of the `INSERT` statements (shape ids stop below it).
const INSERT_KEY: u32 = shapes::SHAPES as u32;
/// One served `SELECT` in this many is re-run through the native optimizer,
/// uncached, on the same catalog state, and must give the same answer.
const RECHECK_ONE_IN: usize = 16;

pub struct ChurnWorld {
    side: Side,
    ops: Vec<Op>,
    recheck: SmallRng,
}

impl ChurnWorld {
    pub fn setup(seed: u64, statements: usize) -> Result<ChurnWorld, String> {
        let side = Side::tpch();
        let ops = shapes::stream(seed, statements);
        // Start with the hot set cached, as a long-running server would.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a7_c01d);
        for id in shapes::hot_ids() {
            let sql = Shape::new(id).render(&mut rng);
            side.engine
                .query_cached_opts(&sql, &*side.orca, &SessionOpts::default())
                .map_err(|e| format!("warm-up of shape {id}: {e}"))?;
        }
        Ok(ChurnWorld { side, ops, recheck: SmallRng::seed_from_u64(seed ^ 0x5a3b_1e16) })
    }
}

/// Run one operation the way a session would. `ok` is false on `Err` and,
/// for the statements `recheck` samples, on a wrong answer.
fn serve(side: &Side, recheck: &mut SmallRng, op: &Op) -> (bool, f64, Option<CacheOutcome>) {
    match op {
        Op::Insert { sql } => {
            let (done, us) = time_us(|| side.engine.execute_sql_shared(sql));
            (done.is_ok(), us, None)
        }
        Op::Select { sql, .. } => {
            let (served, us) = time_us(|| {
                side.engine.query_cached_opts(sql, &*side.orca, &SessionOpts::default())
            });
            let sampled = recheck.gen_range(0..RECHECK_ONE_IN) == 0;
            match served {
                Ok((out, outcome)) => {
                    let ok = !sampled
                        || side.engine.query(sql).is_ok_and(|reference| {
                            Digest::of(&out.rows).matches(&Digest::of(&reference.rows))
                        });
                    (ok, us, Some(outcome))
                }
                Err(_) => (false, us, None),
            }
        }
    }
}

fn key_of(op: &Op) -> u32 {
    match op {
        Op::Select { shape, .. } => *shape as u32,
        Op::Insert { .. } => INSERT_KEY,
    }
}

impl World for ChurnWorld {
    fn timed(&mut self, statements: usize, gate: &Gate) -> Timed {
        let before = self.side.engine.plan_cache_stats();
        let mut tally = Tally::default();
        let mut segments = Vec::new();
        let ops = &self.ops[..statements.min(self.ops.len())];
        for range in segment_ranges(ops.len()) {
            gate.wait();
            let mut samples = Vec::with_capacity(range.len());
            for op in &ops[range] {
                let (ok, us, _) = serve(&self.side, &mut self.recheck, op);
                tally.record(ok);
                samples.push(Sample::new(key_of(op), us));
            }
            segments.push(Segment::in_process(samples));
        }
        let after = self.side.engine.plan_cache_stats();
        let notes = vec![
            ("statements", ops.len().to_string()),
            ("shapes", shapes::SHAPES.to_string()),
            ("hot_shapes", shapes::HOT.to_string()),
            ("plan_cache_capacity", mylite::plancache::DEFAULT_CAPACITY.to_string()),
            ("plan_cache_evictions", (after.evictions - before.evictions).to_string()),
            ("plan_cache_invalidations", (after.invalidations - before.invalidations).to_string()),
        ];
        Timed { segments, tally, notes }
    }

    fn traced(&mut self, pass_size: usize) -> Traced {
        let side = &self.side;
        let sides = std::slice::from_ref(side);
        let mut layers = Layers::begin(sides);
        let mut tally = Tally::default();
        let mut replica = Replica::new(&side.engine, &side.orca);
        let n = (TRACED_PASSES * pass_size).min(self.ops.len());
        for (stmt, op) in self.ops[..n].iter().enumerate() {
            let sql = match op {
                Op::Select { sql, .. } => sql,
                Op::Insert { sql } => {
                    // Nothing to unroll from outside: the span is the call.
                    replica.rec.set_stmt(stmt as u32);
                    let done = replica.rec.span(ROOT, |rec| {
                        rec.span("catalog.insert", |_| side.engine.execute_sql_shared(sql))
                    });
                    tally.record(done.is_ok());
                    continue;
                }
            };
            let (ok, real_us, outcome) = serve(side, &mut self.recheck, op);
            let hit = outcome == Some(CacheOutcome::Hit);
            let replayed = replica.serve(stmt as u32, sql, hit, false);
            layers.compare(sql, real_us, replica.rec.last_root_ns(ROOT));
            layers.served(outcome, real_us, replayed.as_ref().ok().map(|r| r.exec_ns));
            // The replica ran against the same catalog state as the real
            // call (the next INSERT comes later), so answers must agree.
            let reference = side.engine.query(sql).map(|out| Digest::of(&out.rows));
            tally.record(
                ok && replayed
                    .is_ok_and(|r| reference.is_ok_and(|d| Digest::of(&r.rows).matches(&d))),
            );
        }
        layers.finish(sides, &[replica], tally)
    }
}
