//! Node mobility: the random-waypoint model.
//!
//! The paper studies *static* networks and defers mobility to the ELFN
//! (Holland & Vaidya) and DOOR (Wang & Zhang) lines of work it cites. This
//! module provides the standard random-waypoint model those papers
//! evaluate on, enabling the mobility + ELFN extension study (the
//! [`crate::jobs::ext_elfn`] grid over [`crate::Scenario::mobile_strip`]).

use mwn_phy::Position;
use mwn_pkt::NodeId;
use mwn_sim::{Pcg32, SimDuration};

/// Random-waypoint parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    /// Field width (m).
    pub width: f64,
    /// Field height (m).
    pub height: f64,
    /// Minimum node speed (m/s); kept above zero to avoid the classic
    /// "speed decay to zero" pathology of the model.
    pub min_speed: f64,
    /// Maximum node speed (m/s).
    pub max_speed: f64,
    /// Pause at each waypoint.
    pub pause: SimDuration,
    /// How often positions are re-evaluated and the medium recomputed.
    pub tick: SimDuration,
}

impl RandomWaypoint {
    /// A typical ad hoc evaluation setup: 1500 × 300 m strip, 1–`speed`
    /// m/s, the given pause time, 100 ms position ticks.
    pub fn strip(speed: f64, pause: SimDuration) -> Self {
        RandomWaypoint {
            width: 1500.0,
            height: 300.0,
            min_speed: 1.0,
            max_speed: speed.max(1.0),
            pause,
            tick: SimDuration::from_millis(100),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Moving toward the waypoint.
    Moving { target: Position, speed: f64 },
    /// Paused at a waypoint; remaining pause in seconds.
    Paused { remaining: f64 },
}

/// The evolving positions of all nodes under random waypoint.
///
/// Every node draws its waypoints and speeds from its own forked RNG
/// stream, so each trajectory is a pure function of (seed, node index)
/// alone. In particular the *tick* is purely a sampling rate: two models
/// that subdivide the same total time differently visit the same
/// waypoint sequence at the same speeds (see the tick-subdivision test).
#[derive(Debug, Clone)]
pub struct MobilityModel {
    params: RandomWaypoint,
    /// One independent stream per node, forked from the root at
    /// construction.
    rngs: Vec<Pcg32>,
    positions: Vec<Position>,
    phases: Vec<Phase>,
}

impl MobilityModel {
    /// Starts the model from the given initial positions.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (non-positive field,
    /// speeds, or tick).
    pub fn new(params: RandomWaypoint, initial: Vec<Position>, mut rng: Pcg32) -> Self {
        assert!(
            params.width > 0.0 && params.height > 0.0,
            "field must be positive"
        );
        assert!(
            params.min_speed > 0.0 && params.max_speed >= params.min_speed,
            "need 0 < min_speed <= max_speed"
        );
        assert!(!params.tick.is_zero(), "tick must be positive");
        let mut rngs: Vec<Pcg32> = initial.iter().map(|_| rng.fork()).collect();
        let phases = rngs
            .iter_mut()
            .map(|rng| {
                let target = Position::new(
                    rng.gen_range_f64(0.0, params.width),
                    rng.gen_range_f64(0.0, params.height),
                );
                let speed = rng.gen_range_f64(params.min_speed, params.max_speed);
                Phase::Moving { target, speed }
            })
            .collect();
        MobilityModel {
            params,
            rngs,
            positions: initial,
            phases,
        }
    }

    /// Current positions.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Heap bytes of the per-node state, by capacity: one stream, one
    /// position and one phase per node.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rngs.capacity() * size_of::<Pcg32>()
            + self.positions.capacity() * size_of::<Position>()
            + self.phases.capacity() * size_of::<Phase>()
    }

    /// The reposition interval.
    pub fn tick(&self) -> SimDuration {
        self.params.tick
    }

    /// Advances every node by one tick and returns the new positions.
    pub fn step(&mut self) -> &[Position] {
        self.step_into(&mut Vec::new());
        &self.positions
    }

    /// Advances every node by one tick, appending `(node, new position)`
    /// to `moved` for each node whose position changed (a paused node's
    /// does not), in node order.
    pub fn step_into(&mut self, moved: &mut Vec<(NodeId, Position)>) {
        let dt = self.params.tick.as_secs_f64();
        for i in 0..self.positions.len() {
            let old = self.positions[i];
            self.advance(i, dt);
            if self.positions[i] != old {
                moved.push((NodeId(i as u32), self.positions[i]));
            }
        }
    }

    fn advance(&mut self, i: usize, mut dt: f64) {
        while dt > 0.0 {
            match self.phases[i] {
                Phase::Paused { remaining } => {
                    if remaining > dt {
                        self.phases[i] = Phase::Paused {
                            remaining: remaining - dt,
                        };
                        return;
                    }
                    dt -= remaining;
                    let target = Position::new(
                        self.rngs[i].gen_range_f64(0.0, self.params.width),
                        self.rngs[i].gen_range_f64(0.0, self.params.height),
                    );
                    let speed =
                        self.rngs[i].gen_range_f64(self.params.min_speed, self.params.max_speed);
                    self.phases[i] = Phase::Moving { target, speed };
                }
                Phase::Moving { target, speed } => {
                    let here = self.positions[i];
                    let dist = here.distance_to(target);
                    let reach = speed * dt;
                    if reach < dist {
                        let f = reach / dist;
                        self.positions[i] = Position::new(
                            here.x + (target.x - here.x) * f,
                            here.y + (target.y - here.y) * f,
                        );
                        return;
                    }
                    // Arrive and pause; the constructor guarantees
                    // speed > 0, so the travel time is well-defined.
                    self.positions[i] = target;
                    dt -= dist / speed;
                    self.phases[i] = Phase::Paused {
                        remaining: self.params.pause.as_secs_f64(),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(pause_ms: u64) -> MobilityModel {
        let params = RandomWaypoint {
            width: 1000.0,
            height: 500.0,
            min_speed: 5.0,
            max_speed: 20.0,
            pause: SimDuration::from_millis(pause_ms),
            tick: SimDuration::from_millis(100),
        };
        let initial = (0..10)
            .map(|i| Position::new(100.0 * f64::from(i), 250.0))
            .collect();
        MobilityModel::new(params, initial, Pcg32::new(7))
    }

    #[test]
    fn nodes_move_and_stay_in_bounds() {
        let mut m = model(0);
        let before = m.positions().to_vec();
        for _ in 0..600 {
            m.step();
        }
        let after = m.positions();
        let moved = before
            .iter()
            .zip(after)
            .filter(|(b, a)| b.distance_to(**a) > 1.0)
            .count();
        assert!(
            moved >= 9,
            "almost every node must have moved, only {moved} did"
        );
        for p in after {
            assert!((0.0..=1000.0).contains(&p.x) && (0.0..=500.0).contains(&p.y));
        }
    }

    #[test]
    fn speed_respects_bounds() {
        let mut m = model(0);
        let mut prev = m.positions().to_vec();
        for _ in 0..200 {
            let next = m.step().to_vec();
            for (a, b) in prev.iter().zip(&next) {
                let v = a.distance_to(*b) / 0.1;
                // A node may arrive and re-depart mid-tick, so allow a
                // small overshoot of the nominal top speed.
                assert!(v <= 20.0 * 1.5 + 1e-9, "speed {v} m/s out of range");
            }
            prev = next;
        }
    }

    #[test]
    fn step_into_batch_is_the_position_diff() {
        // Long pauses mix paused and moving nodes within one tick.
        let (mut a, mut b) = (model(700), model(700));
        let mut moved = Vec::new();
        let mut paused = [false; 10];
        for _ in 0..3000 {
            let old = a.positions().to_vec();
            let diff: Vec<(NodeId, Position)> = a
                .step()
                .iter()
                .zip(&old)
                .enumerate()
                .filter(|(_, (new, old))| new != old)
                .map(|(i, (&new, _))| (NodeId(i as u32), new))
                .collect();
            moved.clear();
            b.step_into(&mut moved);
            assert_eq!(moved, diff);
            for (i, was) in paused.iter_mut().enumerate() {
                *was |= diff.iter().all(|&(id, _)| id != NodeId(i as u32));
            }
        }
        assert_eq!(paused, [true; 10], "a node never paused");
    }

    #[test]
    fn pause_holds_position_after_arrival() {
        // Huge pause: once a node arrives, it never moves again within
        // the test horizon.
        let mut m = model(1_000_000);
        let mut arrived_at: Vec<Option<Position>> = vec![None; 10];
        for _ in 0..3000 {
            let prev = m.positions().to_vec();
            let next = m.step();
            for i in 0..10 {
                if let Some(p) = arrived_at[i] {
                    assert!(p.distance_to(next[i]) < 1e-9, "paused node {i} moved");
                } else if prev[i].distance_to(next[i]) < 1e-12 {
                    arrived_at[i] = Some(next[i]);
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = model(0);
        let mut b = model(0);
        for _ in 0..100 {
            assert_eq!(a.step().to_vec(), b.step());
        }
    }

    /// The tick is a sampling rate, not part of the model: two models
    /// differing only in tick subdivision visit bit-identical waypoint
    /// sequences (per-node RNG streams make the draw order independent
    /// of when other nodes arrive) and agree on positions at every
    /// common time up to floating-point interpolation error.
    #[test]
    fn waypoint_sequences_agree_across_tick_subdivisions() {
        let mk = |tick_ms: u64| {
            let params = RandomWaypoint {
                width: 1000.0,
                height: 500.0,
                min_speed: 5.0,
                max_speed: 20.0,
                pause: SimDuration::from_millis(300),
                tick: SimDuration::from_millis(tick_ms),
            };
            let initial = (0..8)
                .map(|i| Position::new(100.0 * f64::from(i), 250.0))
                .collect();
            MobilityModel::new(params, initial, Pcg32::new(42))
        };
        let mut coarse = mk(100);
        let mut fine = mk(20);
        for step in 0..600 {
            coarse.step();
            for _ in 0..5 {
                fine.step();
            }
            for i in 0..8 {
                let (a, b) = (coarse.positions()[i], fine.positions()[i]);
                assert!(
                    a.distance_to(b) < 1e-6,
                    "node {i} diverged at step {step}: {a} vs {b}"
                );
                match (coarse.phases[i], fine.phases[i]) {
                    (
                        Phase::Moving {
                            target: ta,
                            speed: sa,
                        },
                        Phase::Moving {
                            target: tb,
                            speed: sb,
                        },
                    ) => {
                        assert_eq!(ta, tb, "node {i} waypoint diverged at step {step}");
                        assert_eq!(sa, sb, "node {i} speed diverged at step {step}");
                    }
                    (Phase::Paused { remaining: ra }, Phase::Paused { remaining: rb }) => {
                        assert!(
                            (ra - rb).abs() < 1e-9,
                            "node {i} pause diverged at step {step}"
                        );
                    }
                    (a, b) => panic!("node {i} phase diverged at step {step}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
