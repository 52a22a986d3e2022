// Table-driven exit-code contract for Scenario::from_flags, the one flag
// parse loop, and for the values of the programs' own flags: every
// malformed value must end the process with exit code 2 — the documented
// "bad usage" code — before any training work starts. The binary under
// test is the installed scgnn_cli (path injected by tests/CMakeLists.txt
// as SCGNN_CLI_PATH); when the examples are not built the whole suite
// skips. The same contract holds for bench_paper, whose parse_options
// (bench_util.hpp) runs the same loop (SCGNN_BENCH_PAPER_PATH); those rows
// skip when the benches are not built.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

struct Case {
    const char* label;   ///< which validator the row exercises
    const char* args;    ///< flag + bad value as passed on the command line
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
};

/// Run `binary` with the row's arguments and expect the bad-usage exit 2.
[[maybe_unused]] void expect_exit_2(const std::string& binary,
                                    const Case& c) {
    const std::string cmd =
        binary + " " + c.args + " >/dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_NE(status, -1) << "system() failed for " << cmd;
    ASSERT_TRUE(WIFEXITED(status)) << c.label << " did not exit normally";
    EXPECT_EQ(WEXITSTATUS(status), 2)
        << c.label << ": `" << cmd << "` must exit 2 on bad usage";
}

class CliExitCode : public ::testing::TestWithParam<Case> {};

TEST_P(CliExitCode, MalformedValueExitsWithCode2) {
#ifndef SCGNN_CLI_PATH
    GTEST_SKIP() << "scgnn_cli not built (SCGNN_BUILD_EXAMPLES=OFF)";
#else
    expect_exit_2(SCGNN_CLI_PATH, GetParam());
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
// value, an unknown figure id and flags that Scenario::build rejects
// together all exit 2 before any figure runs.
const Case kBenchCases[] = {
    {"misspelt-flag", "--scal 0.1"},
    {"negative-epochs", "--epochs -3"},
    {"unparsable-scale", "--scale abc"},
    {"unknown-figure", "--figure fig99"},
    {"threads-garbage", "--threads abc"},
    {"invalid-combination", "--fault-link-down 0:0:1:2"},
    {"layers-zero", "--layers 0"},
    {"method-unknown", "--method frob"},
};

class BenchPaperExitCode : public ::testing::TestWithParam<Case> {};

TEST_P(BenchPaperExitCode, MalformedValueExitsWithCode2) {
#ifndef SCGNN_BENCH_PAPER_PATH
    GTEST_SKIP() << "bench_paper not built (SCGNN_BUILD_BENCH=OFF)";
#else
    expect_exit_2(SCGNN_BENCH_PAPER_PATH, GetParam());
#endif
}

INSTANTIATE_TEST_SUITE_P(BenchFlags, BenchPaperExitCode,
                         ::testing::ValuesIn(kBenchCases), case_name);

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
