/**
 * @file
 * csbench: the repository benchmark binary. One process runs one
 * workload (compile, sweep or serve) for a fixed time, checks every
 * output, and prints the metrics as a final JSON line. perfbench/run.py
 * builds this binary and is the command to run; see perfbench/README.md.
 *
 *   csbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--trace-out FILE] [--work-dir DIR] [--source-id ID]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "support/logging.hpp"

namespace {

const char *const kUsage =
    "usage: csbench --workload compile|sweep|serve --seed N --seconds S\n"
    "               --trace 0|1 [--trace-out FILE] [--work-dir DIR]\n"
    "               [--source-id ID]\n";

bool
parseArgs(int argc, char **argv, csbench::RunConfig *config)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            config->workload = value;
        } else if (arg == "--seed") {
            config->seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            config->seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            config->trace = value == "1";
        } else if (arg == "--trace-out") {
            config->traceOut = value;
        } else if (arg == "--work-dir") {
            config->workDir = value;
        } else if (arg == "--source-id") {
            config->sourceId = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return config->seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    csbench::RunConfig config;
    config.processStart = csbench::Clock::now();
    if (!parseArgs(argc, argv, &config)) {
        std::cerr << kUsage;
        return 2;
    }
    cs::setVerboseLogging(false);
    try {
        if (config.workload == "compile")
            return csbench::runCompile(config);
        if (config.workload == "sweep")
            return csbench::runSweep(config);
        if (config.workload == "serve")
            return csbench::runServe(config);
    } catch (const std::exception &e) {
        std::cerr << "csbench: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "csbench: unknown workload '" << config.workload << "'\n"
              << kUsage;
    return 2;
}
