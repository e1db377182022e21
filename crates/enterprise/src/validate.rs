//! BFS result validation and the silent-data-corruption (SDC)
//! verification ladder.
//!
//! Graph 500-style checks against a CPU oracle:
//!
//! 1. the level assignment equals sequential BFS levels exactly (BFS
//!    levels are unique, so any correct traversal must match);
//! 2. every visited vertex (except the source) has a parent one level
//!    shallower connected by a real edge;
//! 3. exactly the source's reachable set is visited.
//!
//! On top of the oracle gate, this module provides the *oracle-free*
//! verification ladder the drivers use to survive injected bit flips
//! (DESIGN.md §5e), controlled by [`VerifyPolicy`]:
//!
//! * `check_level` — incremental end-of-level invariant checker over
//!   the (merged) status/parent arrays;
//! * `repair_vertices` — localized repair of flagged vertices from the
//!   verified per-level checkpoint, tried before any level replay;
//! * [`audit`] — end-of-run parent-tree audit that *proves* the final
//!   depths are the exact BFS distances without running the oracle.

use crate::bfs::BfsResult;
use crate::status::{NO_PARENT, UNVISITED};
use enterprise_graph::{Csr, VertexId};
use std::collections::VecDeque;

/// Knobs for the in-run SDC verification ladder. The default (all
/// `false`) is a strict no-op: the drivers read no extra device state and
/// change no timing, counters, or results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyPolicy {
    /// Run the end-of-level invariant checker after every completed
    /// level pass (on the merged host view for the multi-GPU drivers).
    pub end_of_level: bool,
    /// Run the end-of-run parent-tree [`audit`] and, on a finding,
    /// replay the whole search once on the continuing fault stream.
    pub end_of_run: bool,
    /// On an end-of-level finding, attempt localized repair from the
    /// level checkpoint before escalating to a full level replay.
    pub repair: bool,
}

impl VerifyPolicy {
    /// The disabled (strict no-op) policy — same as `Default`.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Everything on: end-of-level checking with localized repair, plus
    /// the end-of-run audit.
    pub fn full() -> Self {
        Self { end_of_level: true, end_of_run: true, repair: true }
    }

    /// Whether this policy does nothing (the strict no-op default).
    pub fn is_disabled(&self) -> bool {
        *self == Self::default()
    }
}

/// Sequential CPU BFS oracle: levels per vertex (`None` = unreachable).
pub fn cpu_levels(g: &Csr, source: VertexId) -> Vec<Option<u32>> {
    let n = g.vertex_count();
    let mut levels = vec![None; n];
    let mut queue = VecDeque::new();
    levels[source as usize] = Some(0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let next = levels[v as usize].unwrap() + 1;
        for &w in g.out_neighbors(v) {
            if levels[w as usize].is_none() {
                levels[w as usize] = Some(next);
                queue.push_back(w);
            }
        }
    }
    levels
}

/// A validation failure, with enough context to debug the kernel at
/// fault.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // the variant fields are self-describing diagnostics
pub enum ValidationError {
    /// A vertex's level differs from the sequential oracle's.
    LevelMismatch { vertex: VertexId, expected: Option<u32>, actual: Option<u32> },
    /// A visited non-source vertex has no recorded parent.
    MissingParent { vertex: VertexId },
    /// A parent is not exactly one level shallower than its child.
    ParentLevel { vertex: VertexId, parent: VertexId, vertex_level: u32, parent_level: Option<u32> },
    /// A recorded parent is not an in-neighbour of its child.
    ParentNotNeighbor { vertex: VertexId, parent: VertexId },
    /// The visited count differs from the oracle's reachable set.
    VisitedCount { expected: usize, actual: usize },
    /// An invariant violated by silent data corruption, found by the
    /// oracle-free ladder (`check_level` or [`audit`]) rather than the
    /// oracle comparison.
    SilentCorruption { vertex: VertexId, detail: String },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::LevelMismatch { vertex, expected, actual } => write!(
                f,
                "vertex {vertex}: oracle level {expected:?} but traversal produced {actual:?}"
            ),
            ValidationError::MissingParent { vertex } => {
                write!(f, "visited vertex {vertex} has no parent")
            }
            ValidationError::ParentLevel { vertex, parent, vertex_level, parent_level } => write!(
                f,
                "vertex {vertex} (level {vertex_level}) has parent {parent} at level {parent_level:?}"
            ),
            ValidationError::ParentNotNeighbor { vertex, parent } => {
                write!(f, "parent {parent} of vertex {vertex} is not an in-neighbour")
            }
            ValidationError::VisitedCount { expected, actual } => {
                write!(f, "visited {actual} vertices, oracle reached {expected}")
            }
            ValidationError::SilentCorruption { vertex, detail } => {
                write!(f, "silent corruption at vertex {vertex}: {detail}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a traversal against the graph and the CPU oracle.
pub fn validate(g: &Csr, result: &BfsResult) -> Result<(), ValidationError> {
    let oracle = cpu_levels(g, result.source);

    let expected_visited = oracle.iter().filter(|l| l.is_some()).count();
    if result.visited != expected_visited {
        return Err(ValidationError::VisitedCount {
            expected: expected_visited,
            actual: result.visited,
        });
    }

    for v in g.vertices() {
        let vi = v as usize;
        if oracle[vi] != result.levels[vi] {
            return Err(ValidationError::LevelMismatch {
                vertex: v,
                expected: oracle[vi],
                actual: result.levels[vi],
            });
        }
        let Some(level) = result.levels[vi] else { continue };
        if v == result.source {
            continue;
        }
        let Some(parent) = result.parents[vi] else {
            return Err(ValidationError::MissingParent { vertex: v });
        };
        // Guard the index: a corrupted parent word can hold any pattern.
        let parent_level = result.levels.get(parent as usize).copied().flatten();
        if parent_level != Some(level - 1) {
            return Err(ValidationError::ParentLevel {
                vertex: v,
                parent,
                vertex_level: level,
                parent_level,
            });
        }
        // The tree edge parent -> v must exist (v's in-neighbours).
        if !g.in_neighbors(v).contains(&parent) {
            return Err(ValidationError::ParentNotNeighbor { vertex: v, parent });
        }
    }
    Ok(())
}

/// End-of-level invariant checker over the raw (merged) status/parent
/// arrays, run after the pass for `level` completed. Returns the flagged
/// vertices in ascending order (empty = clean). Three invariant groups:
///
/// 1. *sanity* — settled values lie in `0..=level + 1`, only the source
///    is at 0 (and parents itself), unvisited vertices carry no parent;
/// 2. *parent consistency* — every settled non-source vertex has an
///    in-range parent exactly one level shallower across a real CSR
///    edge (checked for **all** settled vertices, not just this level's
///    discoveries, so a flip landing on an old entry is still caught);
/// 3. *completeness* — an unvisited vertex has no (unflagged) settled
///    in-neighbour at `level` or shallower: a completed pass would have
///    discovered it, so a missing discovery (e.g. a corrupted queue
///    entry) surfaces here.
///
/// Over-flagging is safe: [`repair_vertices`] restores from the verified
/// checkpoint and the caller re-checks before accepting the repair.
pub(crate) fn check_level(
    g: &Csr,
    status: &[u32],
    parent: &[u32],
    source: VertexId,
    level: u32,
) -> Vec<u32> {
    let n = g.vertex_count();
    let mut bad = vec![false; n];
    for v in 0..n {
        let (s, p) = (status[v], parent[v]);
        if s == UNVISITED {
            bad[v] = p != NO_PARENT;
            continue;
        }
        if s > level + 1 {
            bad[v] = true;
            continue;
        }
        if v as u32 == source {
            bad[v] = s != 0 || p != source;
            continue;
        }
        if s == 0 || p == NO_PARENT || p as usize >= n {
            bad[v] = true;
            continue;
        }
        bad[v] = status[p as usize] != s - 1 || !g.in_neighbors(v as u32).contains(&p);
    }
    for v in 0..n {
        if bad[v] || status[v] != UNVISITED {
            continue;
        }
        bad[v] = g.in_neighbors(v as u32).iter().any(|&u| {
            let su = status[u as usize];
            !bad[u as usize] && su != UNVISITED && su <= level
        });
    }
    (0..n as u32).filter(|&v| bad[v as usize]).collect()
}

/// Localized repair of the vertices [`check_level`] flagged, using the
/// per-level checkpoint (taken at the top of `level`, after the previous
/// level verified clean, so it is trusted):
///
/// * a vertex settled in the checkpoint restores its checkpointed
///   status/parent — the flip hit an old, already-verified entry;
/// * a vertex unvisited in the checkpoint re-relaxes from the
///   checkpointed frontier: the smallest in-neighbour settled at `level`
///   re-discovers it at `level + 1`, otherwise it returns to unvisited.
///
/// The caller re-runs [`check_level`] on the repaired arrays and only
/// uploads them if the re-check is clean; otherwise it escalates to a
/// full level replay.
pub(crate) fn repair_vertices(
    g: &Csr,
    status: &mut [u32],
    parent: &mut [u32],
    ckpt_status: &[u32],
    ckpt_parent: &[u32],
    corrupted: &[u32],
    level: u32,
) {
    for &v in corrupted {
        let vi = v as usize;
        if ckpt_status[vi] != UNVISITED {
            status[vi] = ckpt_status[vi];
            parent[vi] = ckpt_parent[vi];
        }
    }
    for &v in corrupted {
        let vi = v as usize;
        if ckpt_status[vi] != UNVISITED {
            continue;
        }
        let rediscovered = g
            .in_neighbors(v)
            .iter()
            .copied()
            .filter(|&u| ckpt_status[u as usize] == level)
            .min();
        match rediscovered {
            Some(u) => {
                status[vi] = level + 1;
                parent[vi] = u;
            }
            None => {
                status[vi] = UNVISITED;
                parent[vi] = NO_PARENT;
            }
        }
    }
}

/// End-of-run parent-tree audit: an *oracle-free proof* that `levels`
/// are the exact BFS depths from `source` and `parents` a valid
/// shortest-path tree. The certificate is the classic one:
///
/// * the source is settled at level 0 as its own parent;
/// * every other settled vertex has a parent exactly one level shallower
///   across a real CSR edge (so every level is an *upper* bound on the
///   true distance — a path of that length exists);
/// * no in-edge `u -> v` is "too slack": `level(v) <= level(u) + 1`
///   with unreached = infinity (so every level is also a *lower* bound,
///   and no reachable vertex was missed).
///
/// Together these pin every level to the exact BFS distance, which is
/// what lets the fault-injection tests accept an `Ok` as *provably*
/// correct without consulting the CPU oracle.
pub fn audit(
    g: &Csr,
    source: VertexId,
    levels: &[Option<u32>],
    parents: &[Option<VertexId>],
) -> Result<(), ValidationError> {
    if levels[source as usize] != Some(0) || parents[source as usize] != Some(source) {
        return Err(ValidationError::SilentCorruption {
            vertex: source,
            detail: "source is not settled at level 0 as its own parent".into(),
        });
    }
    for v in g.vertices() {
        let vi = v as usize;
        match levels[vi] {
            None => {
                if parents[vi].is_some() {
                    return Err(ValidationError::SilentCorruption {
                        vertex: v,
                        detail: "unreached vertex carries a parent".into(),
                    });
                }
                if let Some(&u) =
                    g.in_neighbors(v).iter().find(|&&u| levels[u as usize].is_some())
                {
                    return Err(ValidationError::SilentCorruption {
                        vertex: v,
                        detail: format!("unreached but in-neighbour {u} is settled"),
                    });
                }
            }
            Some(level) => {
                if v != source {
                    if level == 0 {
                        return Err(ValidationError::SilentCorruption {
                            vertex: v,
                            detail: "non-source vertex at level 0".into(),
                        });
                    }
                    let Some(p) = parents[vi] else {
                        return Err(ValidationError::MissingParent { vertex: v });
                    };
                    // A corrupted parent word can hold any bit pattern;
                    // out-of-range ids read as unsettled, which fails
                    // the certificate rather than the auditor.
                    let parent_level = levels.get(p as usize).copied().flatten();
                    if parent_level != Some(level - 1) {
                        return Err(ValidationError::ParentLevel {
                            vertex: v,
                            parent: p,
                            vertex_level: level,
                            parent_level,
                        });
                    }
                    if !g.in_neighbors(v).contains(&p) {
                        return Err(ValidationError::ParentNotNeighbor { vertex: v, parent: p });
                    }
                }
                for &u in g.in_neighbors(v) {
                    if let Some(lu) = levels[u as usize] {
                        if lu + 1 < level {
                            return Err(ValidationError::SilentCorruption {
                                vertex: v,
                                detail: format!(
                                    "level {level} but in-neighbour {u} is at level {lu}"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Enterprise, EnterpriseConfig};
    use enterprise_graph::GraphBuilder;

    fn path_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new_undirected(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1);
        }
        b.build()
    }

    #[test]
    fn cpu_levels_on_path() {
        let g = path_graph(5);
        let l = cpu_levels(&g, 0);
        assert_eq!(l, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let l2 = cpu_levels(&g, 2);
        assert_eq!(l2, vec![Some(2), Some(1), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn cpu_levels_unreachable() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(cpu_levels(&g, 0), vec![Some(0), Some(1), None]);
    }

    #[test]
    fn enterprise_path_graph_validates() {
        let g = path_graph(40);
        let mut e = Enterprise::new(EnterpriseConfig::default(), &g);
        let r = e.bfs(0);
        assert_eq!(r.depth, 39);
        validate(&g, &r).unwrap();
    }

    #[test]
    fn validation_catches_corrupted_levels() {
        let g = path_graph(10);
        let mut e = Enterprise::new(EnterpriseConfig::default(), &g);
        let mut r = e.bfs(0);
        r.levels[5] = Some(99);
        assert!(matches!(
            validate(&g, &r),
            Err(ValidationError::LevelMismatch { vertex: 5, .. })
        ));
    }

    #[test]
    fn validation_catches_bad_parent() {
        let g = path_graph(10);
        let mut e = Enterprise::new(EnterpriseConfig::default(), &g);
        let mut r = e.bfs(0);
        r.parents[5] = Some(9); // not a neighbour, wrong level
        assert!(validate(&g, &r).is_err());
    }

    /// Run a clean BFS on a path graph and return the raw status/parent
    /// arrays as they would sit in device memory at end of run.
    fn raw_arrays(g: &Csr, source: u32) -> (Vec<u32>, Vec<u32>, u32) {
        let mut e = Enterprise::new(EnterpriseConfig::default(), g);
        let r = e.bfs(source);
        let status: Vec<u32> =
            r.levels.iter().map(|l| l.unwrap_or(UNVISITED)).collect();
        let parent: Vec<u32> =
            r.parents.iter().map(|p| p.unwrap_or(NO_PARENT)).collect();
        (status, parent, r.depth)
    }

    #[test]
    fn check_level_clean_run_is_clean() {
        let g = path_graph(12);
        let (status, parent, depth) = raw_arrays(&g, 0);
        assert!(check_level(&g, &status, &parent, 0, depth).is_empty());
    }

    #[test]
    fn check_level_flags_status_flip_and_repair_heals_it() {
        let g = path_graph(12);
        let (mut status, mut parent, depth) = raw_arrays(&g, 0);
        let (ckpt_status, ckpt_parent) = (status.clone(), parent.clone());
        // Flip a bit in an already-settled status word (vertex 4: 4 -> 6).
        status[4] ^= 2;
        let flagged = check_level(&g, &status, &parent, 0, depth);
        assert!(flagged.contains(&4), "corrupted vertex not flagged: {flagged:?}");
        repair_vertices(
            &g, &mut status, &mut parent, &ckpt_status, &ckpt_parent, &flagged, depth,
        );
        assert_eq!(status, ckpt_status);
        assert_eq!(parent, ckpt_parent);
        assert!(check_level(&g, &status, &parent, 0, depth).is_empty());
    }

    #[test]
    fn check_level_flags_missed_discovery() {
        let g = path_graph(6);
        // Pretend the pass for level 2 completed but vertex 3 was never
        // discovered (a corrupted queue entry would do this).
        let status = vec![0, 1, 2, UNVISITED, UNVISITED, UNVISITED];
        let parent = vec![0, 0, 1, NO_PARENT, NO_PARENT, NO_PARENT];
        let flagged = check_level(&g, &status, &parent, 0, 2);
        assert_eq!(flagged, vec![3]);
    }

    #[test]
    fn repair_rediscovers_frontier_child_from_checkpoint() {
        let g = path_graph(6);
        // Checkpoint at top of level 2: vertices 0..=2 settled.
        let ckpt_status = vec![0, 1, 2, UNVISITED, UNVISITED, UNVISITED];
        let ckpt_parent = vec![0, 0, 1, NO_PARENT, NO_PARENT, NO_PARENT];
        // After the pass, vertex 3's fresh entry got corrupted.
        let mut status = vec![0, 1, 2, 17, UNVISITED, UNVISITED];
        let mut parent = vec![0, 0, 1, 9, NO_PARENT, NO_PARENT];
        let flagged = check_level(&g, &status, &parent, 0, 2);
        assert!(flagged.contains(&3));
        repair_vertices(
            &g, &mut status, &mut parent, &ckpt_status, &ckpt_parent, &flagged, 2,
        );
        // Re-relaxed from the trusted frontier: rediscovered at level 3 via 2.
        assert_eq!(status[3], 3);
        assert_eq!(parent[3], 2);
        assert!(check_level(&g, &status, &parent, 0, 2).is_empty());
    }

    #[test]
    fn audit_accepts_clean_run() {
        let g = path_graph(20);
        let mut e = Enterprise::new(EnterpriseConfig::default(), &g);
        let r = e.bfs(3);
        audit(&g, 3, &r.levels, &r.parents).unwrap();
    }

    #[test]
    fn audit_catches_slack_level() {
        // A level that is too deep is consistent with the parent rules the
        // oracle-free `validate` relies on, but violates minimality: the
        // audit's lower-bound check must catch it.
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build();
        let levels = vec![Some(0), Some(1), Some(1), Some(2)];
        let parents = vec![Some(0), Some(0), Some(0), Some(1)];
        audit(&g, 0, &levels, &parents).unwrap();
        // Push 3 one level deeper via a bogus-but-consistent chain? There is
        // none on this graph, so instead deepen 2 and keep 3's parent at 1:
        // 2 now claims level 3, but in-neighbour 0 is at level 0.
        let levels = vec![Some(0), Some(1), Some(3), Some(2)];
        let parents = vec![Some(0), Some(0), Some(0), Some(1)];
        assert!(matches!(
            audit(&g, 0, &levels, &parents),
            Err(ValidationError::ParentLevel { vertex: 2, .. })
                | Err(ValidationError::SilentCorruption { .. })
        ));
    }

    #[test]
    fn audit_catches_missed_vertex() {
        let g = path_graph(5);
        let levels = vec![Some(0), Some(1), Some(2), None, None];
        let parents = vec![Some(0), Some(0), Some(1), None, None];
        assert!(matches!(
            audit(&g, 0, &levels, &parents),
            Err(ValidationError::SilentCorruption { vertex: 3, .. })
        ));
    }
}
