// Table-driven exit-code contract for Scenario::from_flags, the one flag
// parse loop, for the values of the programs' own flags and for the
// programs' other documented exits. Every row carries the exact code it
// must end with: 2 for bad usage — before any training work starts — 1
// for a run that fails, 3 for a degraded fault run. The binary under test
// is the installed scgnn_cli (path injected by tests/CMakeLists.txt as
// SCGNN_CLI_PATH); when the examples are not built those rows skip. The
// same contract holds for bench_paper, whose parse_options
// (bench_util.hpp) runs the same loop (SCGNN_BENCH_PAPER_PATH), and for
// partition_explorer's preset index (SCGNN_PARTITION_EXPLORER_PATH); their
// rows skip when those programs are not built.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

struct Case {
    const char* label;  ///< which validator the row exercises
    const char* args;   ///< flag + bad value as passed on the command line
    int code = 2;       ///< the documented exit code
};

// Every shared-flag validator with a representative malformed value, plus
// the cli-local bad-usage paths (unknown flag, missing value).
const Case kCases[] = {
    {"topology", "--topology hier:3x"},
    {"topology-mismatch", "--topology lattice"},
    {"collective", "--collective butterfly"},
    {"compressor-schedule", "--compressor-schedule sometimes"},
    {"compressor-schedule-adaptive", "--compressor-schedule adaptive"},
    {"membership-syntax", "--membership leave:5"},
    {"membership-trailing", "--membership leave:5@d3,"},
    {"membership-kind", "--membership evict:5@d3"},
    {"log-level", "--log-level loud"},
    {"schedule-floor", "--schedule-floor 1.5"},
    {"schedule-hold", "--schedule-hold 4"},
    {"warmup-epochs", "--warmup-epochs 0"},
    {"warmup-epochs-negative", "--warmup-epochs -3"},
    {"unknown-flag", "--frobnicate"},
    {"missing-value", "--membership"},
    // The Scenario workload flags (runtime/scenario.hpp).
    {"mode", "--mode inference"},
    {"batch-size", "--batch-size 0"},
    {"fanout-zero", "--fanout 10,0"},
    {"fanout-garbage", "--fanout x"},
    {"qps", "--qps 0"},
    {"deadline-ms", "--deadline-ms -1"},
    {"queries", "--queries 0"},
    {"serve-batch", "--serve-batch 0"},
    // Scenario::build validators: flags that parse alone but make an
    // invalid combination must still exit 2 before any work starts.
    {"sample-train-membership",
     "--mode sample-train --membership leave:1@d1,join:2@d1"},
    {"sample-train-delay", "--mode sample-train --method delay"},
    {"sample-train-delay-stack", "--mode sample-train --method ours+delay"},
    {"fault-link-down-self", "--fault-link-down 0:0:1:2"},
    // Every number is read whole and range-checked: no silent 0, no
    // wrap-around, no trailing garbage, no overflow to inf.
    {"threads-negative", "--threads -2"},
    {"threads-garbage", "--threads abc"},
    {"fault-drop-garbage", "--fault-drop abc"},
    {"fault-drop-range", "--fault-drop 1.5"},
    {"timeout-garbage", "--timeout abc"},
    {"timeout-negative", "--timeout -1 --fault-drop 0.1"},
    {"retry-max-negative", "--retry-max -1"},
    {"retry-max-zero", "--retry-max 0"},
    {"fault-seed-negative", "--fault-seed -5"},
    {"fault-link-down-garbage", "--fault-link-down 0:1:2:x"},
    {"batch-size-trailing", "--batch-size 5abc"},
    {"qps-overflow", "--qps 1e400"},
    {"fanout-trailing-comma", "--fanout 10,"},
    // The cli-local numeric flags.
    {"epochs-negative", "--epochs -3"},
    {"scale-garbage", "--scale abc"},
    {"parts-zero", "--parts 0"},
    {"bits-unsupported", "--bits 5"},
    {"seed-fractional", "--seed 1.5"},
    // The pipeline flags, and the cli's own keyword and count flags.
    {"layers-zero", "--layers 0"},
    {"partition-unknown", "--partition spiral"},
    {"method-unknown", "--method frob"},
    {"dropout-one", "--dropout 1"},
    {"groups-zero", "--groups 0"},
    {"tau-zero", "--tau 0"},
    {"rate-zero", "--rate 0"},
    {"dataset-unknown", "--dataset mars"},
    {"max-staleness-negative", "--max-staleness -1"},
    {"fault-link-down-beyond-parts", "--parts 2 --fault-link-down 0:9:0:1"},
    // Past the parser: a library error ends the run with exit 1, and a
    // fault run staler than --max-staleness with exit 3.
    {"load-missing-dir", "--load /nonexistent/scgnn-dataset", 1},
    {"fault-degraded",
     "--dataset pubmed --scale 0.1 --epochs 4 --method ours --groups 8 "
     "--fault-drop 0.6 --retry-max 1 --timeout 0.001 --max-staleness 0",
     3},
};

/// Run `binary` with the row's arguments and expect the row's exit code.
[[maybe_unused]] void expect_exit(const std::string& binary, const Case& c) {
    const std::string cmd =
        binary + " " + c.args + " >/dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_NE(status, -1) << "system() failed for " << cmd;
    ASSERT_TRUE(WIFEXITED(status)) << c.label << " did not exit normally";
    EXPECT_EQ(WEXITSTATUS(status), c.code)
        << c.label << ": `" << cmd << "` must exit " << c.code;
}

class CliExitCode : public ::testing::TestWithParam<Case> {};

TEST_P(CliExitCode, ExitsWithTheDocumentedCode) {
#ifndef SCGNN_CLI_PATH
    GTEST_SKIP() << "scgnn_cli not built (SCGNN_BUILD_EXAMPLES=OFF)";
#else
    expect_exit(SCGNN_CLI_PATH, GetParam());
#endif
}

/// gtest-safe test name from a row label.
std::string case_name(const ::testing::TestParamInfo<Case>& pi) {
    std::string name = pi.param.label;
    for (char& ch : name)
        if (ch == '-') ch = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(Validators, CliExitCode, ::testing::ValuesIn(kCases),
                         case_name);

// The bench flag parser: a misspelt flag, an out-of-range or unparsable
// value, an unknown figure id, flags that Scenario::build rejects
// together and the scenario flags no figure reads, even with a legal
// value, all exit 2 before any figure runs.
const Case kBenchCases[] = {
    {"misspelt-flag", "--scal 0.1"},
    {"negative-epochs", "--epochs -3"},
    {"unparsable-scale", "--scale abc"},
    {"unknown-figure", "--figure fig99"},
    {"threads-garbage", "--threads abc"},
    {"invalid-combination", "--fault-link-down 0:0:1:2"},
    {"layers-zero", "--layers 0"},
    {"ignored-parts", "--parts 4"},
    {"ignored-method", "--method ours"},
    {"ignored-rate", "--rate 0.5"},
    {"ignored-bits", "--bits 8"},
    {"ignored-tau", "--tau 2"},
    {"ignored-ef-flush", "--ef-flush 0.5"},
    {"ignored-mode", "--mode train"},
    {"ignored-batch-size", "--batch-size 32"},
    {"ignored-fanout", "--fanout 10,5"},
    {"ignored-qps", "--qps 1000"},
    {"ignored-no-serve-cache", "--no-serve-cache"},
};

class BenchPaperExitCode : public ::testing::TestWithParam<Case> {};

TEST_P(BenchPaperExitCode, ExitsWithTheDocumentedCode) {
#ifndef SCGNN_BENCH_PAPER_PATH
    GTEST_SKIP() << "bench_paper not built (SCGNN_BUILD_BENCH=OFF)";
#else
    expect_exit(SCGNN_BENCH_PAPER_PATH, GetParam());
#endif
}

INSTANTIATE_TEST_SUITE_P(BenchFlags, BenchPaperExitCode,
                         ::testing::ValuesIn(kBenchCases), case_name);

TEST(PartitionExplorerExitCode, OutOfRangePresetIndexExits2) {
#ifndef SCGNN_PARTITION_EXPLORER_PATH
    GTEST_SKIP() << "partition_explorer not built (SCGNN_BUILD_EXAMPLES=OFF)";
#else
    expect_exit(SCGNN_PARTITION_EXPLORER_PATH, {"bad-index", "7"});
#endif
}

#ifdef SCGNN_CLI_PATH
TEST(CliExitCode, WellFormedFlagsParse) {
    // The same flags with legal values must get past the parser: a tiny
    // run end-to-end exits 0 (this also guards against validators that
    // reject everything).
    const std::string cmd =
        std::string(SCGNN_CLI_PATH) +
        " --scale 0.05 --epochs 2 --parts 4 --method vanilla"
        " --membership leave:1@d1,join:2@d1 >/dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(CliExitCode, WellFormedWorkloadFlagsParse) {
    // The sampled and serving workloads end-to-end: legal values exit 0.
    for (const char* args :
         {" --scale 0.05 --epochs 2 --parts 4 --mode sample-train"
          " --batch-size 32 --fanout 6,4",
          " --scale 0.05 --parts 4 --mode serve --qps 3000 --queries 200"
          " --serve-batch 4 --deadline-ms 1.5 --no-serve-cache"}) {
        const std::string cmd = std::string(SCGNN_CLI_PATH) + args +
                                " >/dev/null 2>/dev/null";
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 0) << args;
    }
}
#endif

} // namespace
