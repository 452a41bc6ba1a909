//! Integration tests of the MapReduce substrate in combination with the
//! DASC stages: deterministic jobs, elasticity replay.

use std::time::Duration;

use dasc::core::{Dasc, DascConfig};
use dasc::mapreduce::{run_job, simulate_makespan, ClusterConfig, FnMapper, FnReducer};
use dasc::prelude::*;

#[test]
fn engine_output_is_identical_across_cluster_sizes() {
    // A job whose reducer output depends on value order — the stable
    // shuffle must make it cluster-size independent.
    let mapper = FnMapper::new(
        |i: usize, v: u32, emit: &mut dyn FnMut(u32, (usize, u32))| {
            emit(v % 5, (i, v));
        },
    );
    let reducer = FnReducer::new(
        |key: u32, vs: Vec<(usize, u32)>, emit: &mut dyn FnMut(String)| {
            let ids: Vec<String> = vs.iter().map(|(i, _)| i.to_string()).collect();
            emit(format!("{key}:{}", ids.join(",")));
        },
    );
    let inputs: Vec<(usize, u32)> = (0..200u32).map(|v| (v as usize, v * 7)).collect();

    // Output *order* follows partition layout (reducer count), exactly
    // as Hadoop's part-files do; the record *set* — including the value
    // order inside each key group — must be identical.
    let mut a = run_job(
        &mapper,
        &reducer,
        inputs.clone(),
        &ClusterConfig::single_node(),
    )
    .records;
    let mut b = run_job(&mapper, &reducer, inputs.clone(), &ClusterConfig::emr(16)).records;
    let mut c = run_job(&mapper, &reducer, inputs, &ClusterConfig::emr(64)).records;
    a.sort();
    b.sort();
    c.sort();
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn dasc_distributed_records_replayable_task_bag() {
    let ds = SyntheticConfig::blobs(400, 8, 4).seed(1).generate();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let result = Dasc::new(DascConfig::for_dataset(400, 4).kernel(kernel))
        .run_distributed(&ds.points, &ClusterConfig::local_lab());

    // Makespan must be weakly decreasing in node count, bounded below by
    // the longest single task.
    let mut last = Duration::MAX;
    for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
        let t = result.simulate_total(&ClusterConfig::emr(nodes));
        assert!(t <= last, "makespan increased at {nodes} nodes");
        last = t;
    }
    let longest_reduce = result
        .stage2
        .reduce_task_durations
        .iter()
        .max()
        .copied()
        .unwrap_or_default();
    assert!(last >= longest_reduce, "sim below critical path");
}

#[test]
fn makespan_bounds_hold() {
    let bag: Vec<Duration> = (1..=50u64).map(Duration::from_millis).collect();
    let total: Duration = bag.iter().sum();
    let max = *bag.iter().max().unwrap();
    for slots in [1usize, 3, 7, 50, 100] {
        let m = simulate_makespan(&bag, slots);
        assert!(m >= max, "below max task");
        assert!(m <= total, "above serial time");
        // Within 2x of the trivial lower bound (LPT is 4/3-optimal).
        let lower = total.as_nanos() / slots as u128;
        assert!(m.as_nanos() * 2 >= lower, "impossibly good makespan");
    }
}

#[test]
fn stats_reflect_job_structure() {
    let ds = SyntheticConfig::blobs(256, 8, 4).seed(3).generate();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let mut executor = ClusterConfig::single_node();
    executor.records_per_split = 32;
    let result = Dasc::new(DascConfig::for_dataset(256, 4).kernel(kernel))
        .run_distributed(&ds.points, &executor);
    assert_eq!(result.stage1.input_records, 256);
    assert_eq!(result.stage1.shuffled_records, 256);
    assert!(result.stage1.num_map_tasks() >= 256 / 32);
    assert_eq!(result.stage2.num_reduce_tasks(), result.num_buckets);
    assert_eq!(result.clustering.len(), 256);
}
