//! Criterion bench: Clio-style candidate generation over growing schema
//! pairs and correspondence sets.

use cms_candgen::{generate_candidates, CandGenConfig};
use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_candgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("candgen");
    group.sample_size(20);
    for invocations in [1usize, 4, 8, 16] {
        let config = ScenarioConfig {
            rows_per_relation: 5, // data size is irrelevant here
            noise: NoiseConfig {
                pi_corresp: 100.0,
                ..NoiseConfig::clean()
            },
            seed: 3,
            ..ScenarioConfig::all_primitives(invocations)
        };
        let scenario = generate(&config);
        group.bench_with_input(
            BenchmarkId::new("generate", scenario.correspondences.len()),
            &invocations,
            |b, _| {
                b.iter(|| {
                    generate_candidates(
                        std::hint::black_box(&scenario.source_schema),
                        std::hint::black_box(&scenario.target_schema),
                        std::hint::black_box(&scenario.correspondences),
                        &CandGenConfig::default(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_candgen);
criterion_main!(benches);
