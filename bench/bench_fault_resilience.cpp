// Fault-resilience sweep: drop rate × retry budget on the pubmed preset,
// reporting accuracy-vs-modelled-time so the cost of recovery (retry wire
// bytes, timeout/backoff seconds, stale-halo accuracy loss) is visible in
// one table. The schedule is deterministic per seed (counter-based
// per-link RNG), so rows are bitwise reproducible at any thread count.
//
// Flags: the shared set (bench_util.hpp) — --scale/--epochs/--seed/
// --threads/--log-level/--obs-out plus the fault flags, which seed the
// sweep's FaultModel (e.g. --timeout tightens every cell's ack timeout).
#include "bench_util.hpp"

int main(int argc, char** argv) {
    using namespace scgnn;
    const benchutil::Options opt = benchutil::parse_options(argc, argv);

    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, opt.scale,
                            opt.seed);
    benchutil::print_dataset(data);

    core::PipelineConfig cfg;
    cfg.num_parts = 4;
    cfg.model = benchutil::model_for(data);
    cfg.train = benchutil::train_cfg(opt);
    cfg.method.method = core::Method::kSemantic;
    cfg.method.semantic = benchutil::semantic_cfg();

    // Fault-free reference row.
    cfg.train.comm.fault = comm::FaultModel{};
    const core::PipelineResult base = core::run_pipeline(data, cfg);
    std::printf("# fault-free: acc=%.4f epoch_ms=%.3f\n",
                base.train.test_accuracy, base.train.mean_epoch_ms);

    Table t({"drop", "retry", "acc", "d-acc", "epoch ms", "comm MB", "drops",
             "retries", "fails", "stale", "max stale"});
    for (const double drop : {0.05, 0.1, 0.2, 0.3}) {
        for (const std::uint32_t retries : {1u, 2u, 4u}) {
            cfg.train.comm.fault = opt.scn.pipeline.train.comm.fault;
            cfg.train.comm.fault.drop_probability = drop;
            cfg.train.comm.retry = opt.scn.pipeline.train.comm.retry;
            cfg.train.comm.retry.max_attempts = retries;
            const core::PipelineResult res = core::run_pipeline(data, cfg);
            const dist::FaultSummary& f = res.train.fault;
            t.add_row({Table::num(drop, 2), Table::num(std::uint64_t{retries}),
                       Table::pct(res.train.test_accuracy),
                       Table::num(res.train.test_accuracy -
                                      base.train.test_accuracy,
                                  4),
                       Table::num(res.train.mean_epoch_ms, 3),
                       Table::num(res.train.mean_comm_mb, 3),
                       Table::num(f.fabric.drops), Table::num(f.fabric.retries),
                       Table::num(f.fabric.failures), Table::num(f.stale_uses),
                       Table::num(std::uint64_t{f.max_staleness})});
        }
    }
    std::printf("%s", t.str().c_str());

    const std::string& obs_out = opt.scn.obs_out;
    if (!obs_out.empty() && obs::finish())
        std::printf("observability: wrote %s.trace.json and %s.report.json\n",
                    obs_out.c_str(), obs_out.c_str());
    return 0;
}
