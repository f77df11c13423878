//! Batch mapping across std threads, with whole-solve deduplication.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qxmap_circuit::CircuitSkeleton;

use crate::cache;
use crate::engine::Engine;
use crate::error::MapperError;
use crate::portfolio::Portfolio;
use crate::report::MapReport;
use crate::request::MapRequest;

/// Maps every request with the default [`Portfolio`] engine, in parallel
/// across std threads. The output preserves input order: `results[i]`
/// answers `requests[i]`.
///
/// Batches deduplicate before spawning threads: requests whose canonical
/// circuit skeletons, devices, options and budgets coincide (including
/// relabeled-register equivalents) are grouped, one representative per
/// group is solved on the worker pool through the process-wide
/// [`crate::SolveCache`], and the rest are served from the
/// representative's result — so a batch of a thousand identical
/// subcircuits pays for one solve, and repeated *batches* stop solving
/// entirely. Below the whole-solve layer, exact solves share cost-weighted
/// `swaps(π)` tables through `qxmap_arch::DeviceModel::costed_table`.
/// Per-request budgets compose with batching — here every request gets
/// its own deadline and conflict budget:
///
/// ```
/// use std::time::Duration;
/// use qxmap_arch::devices;
/// use qxmap_circuit::Circuit;
/// use qxmap_map::{map_many, MapRequest};
///
/// let requests: Vec<MapRequest> = (2..=4)
///     .map(|n| {
///         let mut c = Circuit::new(n);
///         for q in 0..n - 1 {
///             c.cx(q, q + 1);
///         }
///         MapRequest::new(c, devices::ibm_qx4())
///             .with_conflict_budget(Some(200_000))
///             .with_deadline(Duration::from_secs(30))
///     })
///     .collect();
/// let reports = map_many(&requests);
/// assert_eq!(reports.len(), 3); // input order, one answer per request
/// for report in &reports {
///     let report = report.as_ref().expect("chains map on QX4");
///     println!("{} via {} in {:?}", report.cost, report.engine, report.elapsed);
/// }
/// ```
pub fn map_many(requests: &[MapRequest]) -> Vec<Result<MapReport, MapperError>> {
    map_many_with(&Portfolio::new(), requests)
}

/// [`map_many`] with an explicit engine.
///
/// Unique requests (after skeleton-level deduplication — see
/// [`map_many`]) are distributed over `min(available_parallelism, len)`
/// worker threads through an atomic work queue; slots are written back by
/// index, so the output order is the input order regardless of which
/// worker finishes first. Duplicate slots are then answered — also in
/// parallel — directly from their group representative's result (marked
/// [`MapReport::served_from_cache`], layouts translated for relabeled
/// equivalents) or, if the representative failed, by cloning its error.
///
/// Every answer goes through [`Engine::run_cached`]: custom engines whose
/// configuration changes their answers must override
/// [`Engine::cache_signature`], or differently-configured instances
/// sharing a [`Engine::name`] would serve each other's cached results.
pub fn map_many_with<E: Engine + ?Sized>(
    engine: &E,
    requests: &[MapRequest],
) -> Vec<Result<MapReport, MapperError>> {
    if requests.is_empty() {
        return Vec::new();
    }
    // Group identical work before spawning anything, under the *same*
    // typed key the SolveCache uses (grouping and cache identity can
    // never drift apart). The first index of each group is its
    // representative; the rest are served after the representatives. The
    // keys are kept: their skeletons translate duplicate answers in
    // phase 2 without recanonicalizing anything.
    let signature = engine.cache_signature();
    let keys: Vec<cache::CacheKey> = requests
        .iter()
        .map(|request| {
            cache::CacheKey::of(
                &signature,
                CircuitSkeleton::of(request.circuit()),
                request.device_fingerprint(),
                request.options(),
            )
        })
        .collect();
    let mut groups: HashMap<&cache::CacheKey, usize> = HashMap::new();
    let mut representative: Vec<usize> = Vec::with_capacity(requests.len());
    for (i, key) in keys.iter().enumerate() {
        representative.push(*groups.entry(key).or_insert(i));
    }

    let unique: Vec<usize> = representative
        .iter()
        .enumerate()
        .filter(|&(i, &r)| i == r)
        .map(|(i, _)| i)
        .collect();
    let duplicates: Vec<usize> = representative
        .iter()
        .enumerate()
        .filter(|&(i, &r)| i != r)
        .map(|(i, _)| i)
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(requests.len());

    let slots: Vec<Mutex<Option<Result<MapReport, MapperError>>>> =
        requests.iter().map(|_| Mutex::new(None)).collect();
    let run_pool = |indices: &[usize], work: &(dyn Fn(usize) + Sync)| {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(indices.len()) {
                scope.spawn(|| loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = indices.get(u) else {
                        break;
                    };
                    work(i);
                });
            }
        });
    };

    // Phase 1: solve one representative per group.
    run_pool(&unique, &|i| {
        let result = engine.run_cached(&requests[i]);
        *slots[i].lock().expect("no panics while holding the lock") = Some(result);
    });
    // Phase 2: serve the duplicates straight from their representative's
    // result (layouts translated for relabeled equivalents) — not via the
    // cache, whose LRU could have evicted the entry under a batch wider
    // than its capacity. A failed representative's error is cloned:
    // re-deriving an infeasibility proof per duplicate would defeat the
    // dedup.
    run_pool(&duplicates, &|i| {
        let rep = representative[i];
        let rep_outcome = slots[rep]
            .lock()
            .expect("no panics while holding the lock")
            .clone()
            .expect("representatives were solved in phase 1");
        let result = match rep_outcome {
            Ok(report) => {
                Ok(
                    cache::serve_duplicate(&keys[rep].skeleton, report, &keys[i].skeleton)
                        .expect("one dedup group implies equal canonical skeletons"),
                )
            }
            Err(e) => Err(e),
        };
        *slots[i].lock().expect("no panics while holding the lock") = Some(result);
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers have exited")
                .expect("every slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HeuristicEngine;
    use qxmap_arch::devices;
    use qxmap_circuit::Circuit;

    /// A chain circuit with `n` qubits — distinguishable per request.
    fn chain(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(map_many(&[]).is_empty());
    }

    #[test]
    fn results_align_with_requests() {
        let requests: Vec<MapRequest> = (2..=5)
            .map(|n| MapRequest::new(chain(n), devices::ibm_qx4()))
            .collect();
        let results = map_many(&requests);
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            let report = result.as_ref().expect("QX4 maps every chain");
            assert_eq!(
                report.mapped.num_qubits(),
                request.device().num_qubits(),
                "report does not match its request slot"
            );
            report.verify(request.circuit(), request.device()).unwrap();
        }
    }

    #[test]
    fn duplicates_are_served_from_their_representative() {
        let base = chain(4);
        // The same circuit with registers reversed: same dedup group.
        let relabeled = base.map_qubits(4, |q| 3 - q);
        let cm = devices::ibm_qx4();
        let requests = vec![
            MapRequest::new(base.clone(), cm.clone()),
            MapRequest::new(relabeled.clone(), cm.clone()),
            MapRequest::new(base.clone(), cm.clone()),
        ];
        let results = map_many_with(&HeuristicEngine::naive(), &requests);
        let rep = results[0].as_ref().expect("mappable");
        for (i, circuit) in [(1usize, &relabeled), (2, &base)] {
            let served = results[i].as_ref().expect("mappable");
            assert!(served.served_from_cache, "slot {i} was re-solved");
            assert!(served.winner.starts_with("cache/"), "{}", served.winner);
            assert_eq!(served.cost, rep.cost);
            served.verify(circuit, &cm).expect("translated layouts");
        }
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let requests = vec![
            MapRequest::new(chain(3), devices::ibm_qx4()),
            MapRequest::new(chain(7), devices::ibm_qx4()), // too many qubits
            MapRequest::new(chain(2), devices::ibm_qx4()),
        ];
        let results = map_many_with(&HeuristicEngine::naive(), &requests);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(MapperError::TooManyQubits {
                logical: 7,
                physical: 5
            })
        ));
        assert!(results[2].is_ok());
    }
}
