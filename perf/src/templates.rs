//! `compile_cold` and `analytic_hot`: the same 121 TPC-H and TPC-DS
//! statements, once through the compiler only and once through the warm
//! plan cache and the executor only. The seed shuffles their order within
//! each pass; the statements themselves do not depend on it, which is what
//! lets their answers be pinned in a committed golden file.

use crate::check::{golden_from_tsv, Digest, Golden, GoldenSet, Tally};
use crate::quiet::Gate;
use crate::replica::Replica;
use crate::span::ROOT;
use crate::suite::{both_sides, route_of, templates, Side, Template};
use crate::workload::{
    segment_ranges, shuffled, time_us, Layers, Sample, Segment, Timed, Traced, World, TRACED_PASSES,
};
use mylite::{CacheOutcome, SessionOpts};
use taurus_workloads::gen::SmallRng;

/// Routes and answer digests of the 121 statements, written by `perf bless`.
const GOLDEN_TSV: &str = include_str!("../golden/analytic_hot.tsv");

pub struct TemplateWorld {
    sides: [Side; 2],
    templates: Vec<Template>,
    /// Reference per template, in template order.
    golden: Vec<Golden>,
    rng: SmallRng,
    /// `analytic_hot` serves and executes; `compile_cold` only plans.
    execute: bool,
}

impl TemplateWorld {
    pub fn setup(seed: u64, execute: bool) -> Result<TemplateWorld, String> {
        let sides = both_sides();
        let templates = templates();
        let set: GoldenSet = golden_from_tsv(GOLDEN_TSV)?;
        let golden = templates
            .iter()
            .map(|t| set.get(&t.key).cloned().ok_or(format!("no golden entry for {}", t.key)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{e}; run `perf bless`"))?;
        let world = TemplateWorld {
            sides,
            templates,
            golden,
            rng: SmallRng::seed_from_u64(seed ^ 0x7e3b_1a7e),
            execute,
        };
        if execute {
            // Fill the plan cache: every timed statement is then a hit.
            for i in 0..world.templates.len() {
                if !world.serve(i).0 {
                    return Err(format!("warm-up of {} failed its check", world.templates[i].key));
                }
            }
        }
        Ok(world)
    }

    /// Serve template `i` through the plan cache and check the answer.
    fn serve(&self, i: usize) -> (bool, f64, Option<CacheOutcome>) {
        let (t, side) = (&self.templates[i], &self.sides[self.templates[i].side]);
        let (served, us) =
            time_us(|| side.engine.query_cached_opts(&t.sql, &*side.orca, &SessionOpts::default()));
        match served {
            Ok((out, outcome)) => {
                (Digest::of(&out.rows).matches(&self.golden[i].digest), us, Some(outcome))
            }
            Err(_) => (false, us, None),
        }
    }

    /// Compile template `i` and check how the router disposed of it.
    fn compile(&self, i: usize) -> (bool, f64) {
        let (t, side) = (&self.templates[i], &self.sides[self.templates[i].side]);
        let (planned, us) = time_us(|| side.engine.plan(&t.sql, &*side.orca));
        (planned.is_ok_and(|p| route_of(&p) == self.golden[i].route), us)
    }
}

impl World for TemplateWorld {
    fn timed(&mut self, passes: usize, gate: &Gate) -> Timed {
        let mut tally = Tally::default();
        // A segment is a whole number of passes, so every segment holds
        // every template equally often.
        let mut segments = Vec::new();
        for range in segment_ranges(passes) {
            gate.wait();
            let mut samples = Vec::with_capacity(range.len() * self.templates.len());
            for _ in range {
                for i in shuffled(self.templates.len(), &mut self.rng) {
                    let (ok, us) = if self.execute {
                        let (ok, us, _) = self.serve(i);
                        (ok, us)
                    } else {
                        self.compile(i)
                    };
                    tally.record(ok);
                    samples.push(Sample::new(i as u32, us));
                }
            }
            segments.push(Segment::in_process(samples));
        }
        let mut notes =
            vec![("passes", passes.to_string()), ("templates", self.templates.len().to_string())];
        if self.execute {
            let cached: usize = self.sides.iter().map(|s| s.engine.plan_cache_len()).sum();
            notes.push(("plan_cache_entries", cached.to_string()));
        }
        Timed { segments, tally, notes }
    }

    fn traced(&mut self, _pass_size: usize) -> Traced {
        let mut layers = Layers::begin(&self.sides);
        let mut tally = Tally::default();
        let mut replicas: Vec<Replica> =
            self.sides.iter().map(|s| Replica::new(&s.engine, &s.orca)).collect();
        let mut stmt = 0u32;
        for _ in 0..TRACED_PASSES {
            for i in shuffled(self.templates.len(), &mut self.rng) {
                let t = &self.templates[i];
                let replica = &mut replicas[t.side];
                stmt += 1;
                // The real call first, then its replica; the replica must
                // arrive at the same answer (or route) as the real thing.
                if self.execute {
                    let (ok, real_us, outcome) = self.serve(i);
                    let hit = outcome == Some(CacheOutcome::Hit);
                    let served = replica.serve(stmt, &t.sql, hit, false);
                    layers.compare(&t.sql, real_us, replica.rec.last_root_ns(ROOT));
                    layers.served(outcome, real_us, served.as_ref().ok().map(|s| s.exec_ns));
                    let digest = &self.golden[i].digest;
                    tally.record(ok && served.is_ok_and(|s| Digest::of(&s.rows).matches(digest)));
                } else {
                    let (ok, real_us) = self.compile(i);
                    let planned = replica.plan(stmt, &t.sql);
                    layers.compare(&t.sql, real_us, replica.rec.last_root_ns(ROOT));
                    tally.record(ok && planned.is_ok_and(|p| route_of(&p) == self.golden[i].route));
                }
            }
        }
        layers.finish(&self.sides, &replicas, tally)
    }
}
