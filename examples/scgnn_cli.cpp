// Command-line driver for the full SC-GNN pipeline — run any preset (or a
// dataset saved with scgnn::graph::save_dataset) with any method and
// partitioner without writing code.
//
// Usage:
//   scgnn_cli [--mode train|sample-train|serve]
//             [--dataset reddit|yelp|ogbn|pubmed | --load <dir>]
//             [--scale <f>] [--parts <n>] [--epochs <n>] [--layers <n>]
//             [--batch-size <n>] [--fanout <k1,k2,...>]
//             [--qps <f>] [--deadline-ms <f>] [--queries <n>]
//             [--serve-batch <n>] [--no-serve-cache]
//             [--method vanilla|sampling|quant|delay|ours|<stack>]
//             [--compressor-schedule fixed|warmup]
//             [--schedule-floor <f>] [--warmup-epochs <n>]
//             [--partition node|edge|multilevel|random]
//             [--rate <f>] [--bits <4|8|16>] [--tau <n>] [--groups <k>]
//             [--ef-flush <theta>]
//             [--drop-o2o] [--sage|--gin] [--dropout <p>] [--seed <n>]
//             [--threads <n>] [--save <dir>]
//             [--log-level debug|info|warn|error] [--obs-out <prefix>]
//             [--overlap] [--topology flat|hier:NxM]
//             [--collective p2p|ring|tree|hier]
//             [--fault-drop <p>] [--fault-seed <n>]
//             [--fault-link-down <src:dst:from:to>] [--retry-max <n>]
//             [--timeout <s>] [--max-staleness <n>]
//             [--membership <events>]
//
// The CLI's own flags are `--dataset --load --save --scale --seed
// --max-staleness`. Every other flag writes the scenario config and is
// read by runtime::Scenario::from_flags (runtime/scenario.hpp), the one
// parse loop that bench_paper shares, with the same names, ranges and
// defaults there.
//
// `--obs-out run` turns on observability and writes `run.trace.json`
// (Chrome trace_event — open in about://tracing or ui.perfetto.dev) and
// `run.report.json` (per-run telemetry ledger) when the run finishes.
//
// `--overlap` prices each epoch with the event-driven per-link timeline
// (epoch ms = makespan of overlapped compute and transfers, see
// comm/timeline.hpp) instead of the additive compute+comm sum, and adds
// the overlap breakdown rows to the result table.
//
// `--method` also accepts any compressor-factory stack name ("ours+quant",
// "ef+ours", "ef+ours+quant", …): "+" joins stages and a leading "ef+"
// wraps the stack in error feedback (see dist/error_feedback.hpp).
// `--compressor-schedule warmup` ramps the compression fidelity from 1
// down to `--schedule-floor` over `--warmup-epochs` epochs (see
// dist/rate_control.hpp); the default `fixed` never touches it.
// `--ef-flush` sets the error-feedback resync threshold (≤ 0 disables
// resyncing).
//
// `--topology hier:NxM` shapes the fabric as N nodes × M devices per node
// with tiered links (fast intra-node, slow oversubscribed inter-node; N·M
// must equal --parts). `--collective` picks the weight-sync algorithm
// (see comm/collective.hpp). On the hier presets at P = 16, 64 and 128
// the modelled allreduce is fastest with `tree`, then `ring`, then
// `hier` (`bench_paper --figure collectives`).
//
// The `--fault-*`/`--retry-max`/`--timeout` flags inject a deterministic
// fault schedule into the fabric (see comm/fault.hpp). Exit codes: 0 on
// success — including a degraded run that stayed within `--max-staleness`
// (default 0) consecutive stale epochs — 2 on bad usage (an unknown flag,
// a malformed or out-of-range value, or flags that make an invalid
// scenario together), and 3 when fault recovery left any halo block
// staler than that threshold.
//
// `--mode` picks the workload (see runtime/scenario.hpp): `train` is the
// default full-batch distributed run, `sample-train` switches the trainer
// to seeded neighbor-sampled mini-batches (`--batch-size` seeds per batch,
// `--fanout` per-layer neighbor budgets, e.g. `--fanout 10,5`), and
// `serve` mounts the open-loop inference simulation instead of training
// (`--qps` arrival rate, `--queries` stream length, `--serve-batch` /
// `--deadline-ms` micro-batching, `--no-serve-cache` disables the
// semantic halo cache). Serving inherits the link cost model and the
// semantic-grouping knobs from the training-side flags.
//
// `--membership` replays a deterministic elastic-membership schedule
// (see runtime/membership.hpp): comma-joined `leave:<epoch>@d<dev>` /
// `join:<epoch>@d<dev>` events, plus an optional `seed:<n>` for the
// rebalance tie-break stream. Partitions owned by a departing device are
// migrated to survivors at the named epoch; rejoining devices get their
// home partitions handed back. The loss trajectory is bitwise-identical
// to the static run — only comm cost and per-device load change.
//
// Examples:
//   scgnn_cli --dataset reddit --parts 4 --method ours --drop-o2o
//   scgnn_cli --dataset yelp --method sampling --rate 0.1
//   scgnn_cli --dataset reddit --method vanilla --overlap
//   scgnn_cli --dataset reddit --parts 16 --topology hier:4x4 --collective tree
//   scgnn_cli --dataset pubmed --method ef+ours --compressor-schedule warmup
//   scgnn_cli --dataset pubmed --method ours --obs-out run
//   scgnn_cli --dataset pubmed --fault-drop 0.2 --retry-max 3 --max-staleness 4
//   scgnn_cli --parts 16 --topology hier:4x4 --collective tree
//             --membership leave:5@d3,join:10@d3   (one command line)
//   scgnn_cli --dataset pubmed --save /tmp/pubmed && scgnn_cli --load /tmp/pubmed
#include <cstdio>
#include <cstdlib>
#include <string>

#include "scgnn/common/log.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/table.hpp"
#include "scgnn/core/framework.hpp"
#include "scgnn/graph/io.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace {

using namespace scgnn;

graph::DatasetPreset parse_preset(const std::string& s) {
    if (s == "reddit") return graph::DatasetPreset::kRedditSim;
    if (s == "yelp") return graph::DatasetPreset::kYelpSim;
    if (s == "ogbn") return graph::DatasetPreset::kOgbnProductsSim;
    if (s == "pubmed") return graph::DatasetPreset::kPubMedSim;
    std::fprintf(stderr, "bad --dataset '%s' (expected reddit|yelp|ogbn|"
                         "pubmed)\n", s.c_str());
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    // The CLI's defaults, set before parsing; PipelineConfig already
    // defaults to 4 node-cut parts and SC-GNN.
    runtime::ScenarioConfig scn;
    core::PipelineConfig& cfg = scn.pipeline;
    cfg.train.epochs = 30;
    cfg.method.semantic.grouping.kmeans_k = 20;
    std::string dataset = "pubmed", load_dir, save_dir, scale_text = "0.35",
                seed_text = "2024", staleness_text = "0";
    runtime::Scenario::from_flags(argc, argv, scn,
                                  {{"--dataset", &dataset},
                                   {"--load", &load_dir},
                                   {"--save", &save_dir},
                                   {"--scale", &scale_text},
                                   {"--seed", &seed_text},
                                   {"--max-staleness", &staleness_text}});
    const double scale =
        runtime::parse_number("--scale", scale_text.c_str(), 1e-3, 100.0);
    const auto seed = static_cast<std::uint64_t>(runtime::parse_number(
        "--seed", seed_text.c_str(), 0.0, 0x1p53, true));
    const auto max_staleness = static_cast<std::uint32_t>(
        runtime::parse_number("--max-staleness", staleness_text.c_str(), 0.0,
                              4294967295.0, true));

    runtime::Scenario::activate(scn);
    const std::string& obs_out = scn.obs_out;
    const runtime::ScenarioMode mode = scn.mode;

    graph::Dataset data = load_dir.empty()
                              ? graph::make_dataset(parse_preset(dataset),
                                                    scale, seed)
                              : graph::load_dataset(load_dir);
    if (!save_dir.empty()) {
        graph::save_dataset(data, save_dir);
        std::printf("dataset saved to %s\n", save_dir.c_str());
    }

    cfg.partition_seed = seed;
    cfg.model.in_dim = static_cast<std::uint32_t>(data.features.cols());
    cfg.model.out_dim = data.num_classes;

    std::printf("%s | %u nodes | %llu edges | avg degree %.1f | %u parts | "
                "%s | %s | %s partition | %u threads\n",
                data.name.c_str(), data.graph.num_nodes(),
                static_cast<unsigned long long>(data.graph.num_edges()),
                data.graph.average_degree(), cfg.num_parts,
                runtime::mode_name(mode),
                cfg.method.name.empty() ? core::to_string(cfg.method.method)
                                        : cfg.method.name.c_str(),
                partition::to_string(cfg.algo), scgnn::num_threads());

    // Mount the configured workload behind the single validated builder.
    // The serving scenario picks up the model shape from the training-side
    // flags so `--layers` / hidden width mean the same thing in both.
    scn.serve.layers = cfg.model.num_layers;
    scn.serve.embed_dim = cfg.model.hidden_dim;
    // from_flags has already run build() on these flags.
    const runtime::ScenarioResult sres =
        runtime::Scenario::build(scn).run(data);

    if (mode == runtime::ScenarioMode::kServe) {
        const runtime::ServeResult& s = sres.serve;
        Table st({"metric", "value"});
        st.add_row({"queries", Table::num(std::uint64_t{s.queries})});
        st.add_row({"batches", Table::num(s.batches)});
        st.add_row({"mean batch", Table::num(s.mean_batch, 2)});
        st.add_row({"p50 latency ms", Table::num(s.p50_ms, 3)});
        st.add_row({"p99 latency ms", Table::num(s.p99_ms, 3)});
        st.add_row({"p99.9 latency ms", Table::num(s.p999_ms, 3)});
        st.add_row({"mean latency ms", Table::num(s.mean_ms, 3)});
        st.add_row({"cache hit rate", Table::pct(s.hit_rate)});
        st.add_row({"halo MB fetched", Table::num(s.halo_mb, 3)});
        std::printf("%s", st.str().c_str());
        if (!obs_out.empty() && obs::finish())
            std::printf("observability: wrote %s.trace.json and "
                        "%s.report.json\n", obs_out.c_str(), obs_out.c_str());
        return 0;
    }

    const core::PipelineResult& res = sres.pipeline;
    Table t({"metric", "value"});
    t.add_row({"test accuracy", Table::pct(res.train.test_accuracy)});
    t.add_row({"val accuracy", Table::pct(res.train.val_accuracy)});
    t.add_row({"final train loss", Table::num(res.train.final_loss, 4)});
    t.add_row({"comm MB / epoch", Table::num(res.train.mean_comm_mb, 3)});
    t.add_row({"epoch ms", Table::num(res.train.mean_epoch_ms, 2)});
    t.add_row({"  comm ms", Table::num(res.train.mean_comm_ms, 2)});
    t.add_row({"  compute ms", Table::num(res.train.mean_compute_ms, 2)});
    if (cfg.train.comm.overlap()) {
        t.add_row({"  comm hidden ms",
                   Table::num(res.train.mean_overlap_ms, 2)});
        t.add_row({"  comm exposed ms",
                   Table::num(res.train.mean_comm_exposed_ms, 2)});
    }
    t.add_row({"cross edges", Table::num(res.cross_edges)});
    t.add_row({"semantic wire rows", Table::num(res.wire_rows)});
    t.add_row({"compression ratio", Table::num(res.compression_ratio, 1) + "x"});
    t.add_row({"semantic groups", Table::num(std::uint64_t{res.num_groups})});
    t.add_row({"mean group size", Table::num(res.mean_group_size, 1)});
    const dist::FaultSummary& fault = res.train.fault;
    if (cfg.train.comm.fault.active()) {
        t.add_row({"fault drops", Table::num(fault.fabric.drops)});
        t.add_row({"fault retries", Table::num(fault.fabric.retries)});
        t.add_row({"fault failures", Table::num(fault.fabric.failures)});
        t.add_row({"stale halo uses", Table::num(fault.stale_uses)});
        t.add_row({"max staleness", Table::num(std::uint64_t{fault.max_staleness})});
    }
    const runtime::MembershipSummary& mem = res.train.membership;
    if (cfg.train.membership.active()) {
        t.add_row({"membership leaves", Table::num(std::uint64_t{mem.leaves})});
        t.add_row({"membership joins", Table::num(std::uint64_t{mem.joins})});
        t.add_row({"migrated MB",
                   Table::num(static_cast<double>(mem.migrated_bytes) / 1e6, 3)});
        t.add_row({"rebuild ms", Table::num(mem.rebuild_ms, 2)});
        t.add_row({"min active devices",
                   Table::num(std::uint64_t{mem.min_active})});
    }
    if (mode == runtime::ScenarioMode::kSampleTrain) {
        const dist::SampleStats& smp = res.train.sampling;
        t.add_row({"mini-batches", Table::num(smp.batches)});
        t.add_row({"mean batch nodes", Table::num(smp.mean_batch_nodes, 1)});
        t.add_row({"halo rows requested", Table::num(smp.requested_rows)});
        t.add_row({"request MB",
                   Table::num(static_cast<double>(smp.request_bytes) / 1e6,
                              3)});
    }
    std::printf("%s", t.str().c_str());

    if (!obs_out.empty() && obs::finish())
        std::printf("observability: wrote %s.trace.json and %s.report.json\n",
                    obs_out.c_str(), obs_out.c_str());

    if (fault.degraded() && fault.max_staleness > max_staleness) {
        std::fprintf(stderr,
                     "degraded: max staleness %u exceeded --max-staleness %u "
                     "(%llu stale halo uses, %llu failed sends)\n",
                     fault.max_staleness, max_staleness,
                     static_cast<unsigned long long>(fault.stale_uses),
                     static_cast<unsigned long long>(fault.fabric.failures));
        return 3;
    }
    return 0;
}
