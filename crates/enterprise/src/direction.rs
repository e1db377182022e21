//! Direction-switching policies (§4.3).
//!
//! Enterprise's contribution is the γ parameter: the share of the graph's
//! hub vertices already present in the frontier queue,
//! `γ = F_h / T_h × 100%`. The paper shows every graph should switch when
//! γ ∈ (30, 40)% — a narrow, tuning-free band — whereas Beamer's α
//! fluctuates between 2 and 200 across graphs (Figure 10). Both policies
//! are implemented; the driver evaluates whichever is configured, and the
//! `fig10` regenerator traces both per level.


/// When to switch between top-down and bottom-up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DirectionPolicy {
    /// Enterprise's hub-ratio parameter: one-time switch to bottom-up
    /// when γ exceeds `threshold_pct` (paper default: 30). No switch
    /// back — "the long tail ... is neither necessary nor beneficial for
    /// Enterprise" (§2.1).
    Gamma {
        /// Switch when γ exceeds this percentage.
        threshold_pct: f64,
    },
    /// Beamer's heuristics \[10\]: top-down → bottom-up when
    /// `m_u / m_f > alpha`; bottom-up → top-down when the frontier
    /// shrinks below `n / beta`.
    Alpha {
        /// Top-down -> bottom-up threshold on m_u/m_f.
        alpha: f64,
        /// Bottom-up -> top-down threshold on n/n_f.
        beta: f64,
    },
    /// Never switch (classic top-down BFS).
    TopDownOnly,
}

/// γ in percent: the share of the graph's hubs present in the frontier,
/// `F_h / T_h × 100` (§4.3). Zero hubs means γ is undefined; every
/// caller treats that as 0% (never switch on a hub-free graph), so the
/// convention lives here instead of being re-derived at each call site.
pub fn gamma_pct(hub_frontiers: u64, total_hubs: u64) -> f64 {
    if total_hubs == 0 {
        0.0
    } else {
        hub_frontiers as f64 / total_hubs as f64 * 100.0
    }
}

impl DirectionPolicy {
    /// The paper's default: γ > 30%.
    pub fn gamma_default() -> Self {
        DirectionPolicy::Gamma { threshold_pct: 30.0 }
    }

    /// Beamer's published defaults.
    pub fn alpha_default() -> Self {
        DirectionPolicy::Alpha { alpha: 14.0, beta: 24.0 }
    }
}

/// Per-level switching inputs, recorded for instrumentation (Figure 10)
/// and consumed by whichever policy is active.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchSignals {
    /// γ in percent for the frontier the level just discovered.
    pub gamma_pct: f64,
    /// Edges incident to the frontier queue (`m_f`).
    pub frontier_edges: u64,
    /// Edges incident to still-unvisited vertices (`m_u`).
    pub unexplored_edges: u64,
    /// Vertices in the frontier queue (`n_f`).
    pub frontier_vertices: usize,
    /// Total vertices (`n`).
    pub total_vertices: usize,
    /// Whether the frontier grew relative to the previous level (part of
    /// Beamer's switch condition).
    pub frontier_growing: bool,
}

impl SwitchSignals {
    /// Beamer's α = m_u / m_f (infinite when the frontier has no edges).
    pub fn alpha(&self) -> f64 {
        if self.frontier_edges == 0 {
            f64::INFINITY
        } else {
            self.unexplored_edges as f64 / self.frontier_edges as f64
        }
    }
}

/// Decision produced by a policy evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Keep the current direction.
    Stay,
    /// Switch to bottom-up at the next level.
    ToBottomUp,
    /// Switch (back) to top-down at the next level.
    ToTopDown,
}

impl DirectionPolicy {
    /// Evaluates the policy while traversing top-down.
    /// `already_switched` suppresses Gamma's one-time switch.
    pub fn evaluate_topdown(&self, s: &SwitchSignals, already_switched: bool) -> SwitchDecision {
        match *self {
            DirectionPolicy::Gamma { threshold_pct } => {
                if !already_switched && s.gamma_pct > threshold_pct {
                    SwitchDecision::ToBottomUp
                } else {
                    SwitchDecision::Stay
                }
            }
            DirectionPolicy::Alpha { alpha, .. } => {
                // Beamer switches when the frontier grows heavy:
                // m_f > m_u / alpha, i.e. m_u/m_f drops below alpha.
                if s.alpha() < alpha && s.frontier_growing && s.frontier_vertices > 1 {
                    SwitchDecision::ToBottomUp
                } else {
                    SwitchDecision::Stay
                }
            }
            DirectionPolicy::TopDownOnly => SwitchDecision::Stay,
        }
    }

    /// Evaluates the policy while traversing bottom-up.
    /// `newly_visited` is the number of vertices discovered at the level
    /// just expanded.
    pub fn evaluate_bottomup(&self, s: &SwitchSignals, newly_visited: usize) -> SwitchDecision {
        match *self {
            // Enterprise never switches back.
            DirectionPolicy::Gamma { .. } => SwitchDecision::Stay,
            DirectionPolicy::Alpha { beta, .. } => {
                if (newly_visited as f64) < s.total_vertices as f64 / beta {
                    SwitchDecision::ToTopDown
                } else {
                    SwitchDecision::Stay
                }
            }
            DirectionPolicy::TopDownOnly => SwitchDecision::Stay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(gamma: f64, mf: u64, mu: u64, nf: usize, n: usize) -> SwitchSignals {
        SwitchSignals {
            gamma_pct: gamma,
            frontier_edges: mf,
            unexplored_edges: mu,
            frontier_vertices: nf,
            total_vertices: n,
            frontier_growing: true,
        }
    }

    #[test]
    fn gamma_switches_once_above_threshold() {
        let p = DirectionPolicy::gamma_default();
        let s = signals(45.0, 100, 1000, 10, 100);
        assert_eq!(p.evaluate_topdown(&s, false), SwitchDecision::ToBottomUp);
        assert_eq!(p.evaluate_topdown(&s, true), SwitchDecision::Stay);
        let low = signals(12.0, 100, 1000, 10, 100);
        assert_eq!(p.evaluate_topdown(&low, false), SwitchDecision::Stay);
    }

    #[test]
    fn gamma_never_switches_back() {
        let p = DirectionPolicy::gamma_default();
        assert_eq!(p.evaluate_bottomup(&signals(0.0, 0, 0, 0, 100), 0), SwitchDecision::Stay);
    }

    #[test]
    fn alpha_policy_follows_beamer() {
        let p = DirectionPolicy::alpha_default();
        // m_u/m_f = 20 > 14: frontier still light, stay top-down.
        let s = signals(0.0, 50, 1000, 5, 1000);
        assert_eq!(p.evaluate_topdown(&s, false), SwitchDecision::Stay);
        // m_u/m_f = 5 < 14: frontier heavy, switch.
        let s2 = signals(0.0, 200, 1000, 5, 1000);
        assert_eq!(p.evaluate_topdown(&s2, false), SwitchDecision::ToBottomUp);
        // Bottom-up: 10 newly visited < 1000/24 ~ 41: back to top-down.
        assert_eq!(p.evaluate_bottomup(&s2, 10), SwitchDecision::ToTopDown);
        assert_eq!(p.evaluate_bottomup(&s2, 500), SwitchDecision::Stay);
    }

    #[test]
    fn alpha_of_empty_frontier_is_infinite() {
        assert!(signals(0.0, 0, 10, 0, 10).alpha().is_infinite());
    }
}
