// Benchmark entry binary (e2e_bench, and e2e_bench_traced with the layer
// wraps linked in). Normally started through e2ebench/run.py, which builds
// it first:
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//             [--out-dir DIR] [--commit SHA] [--src-lines N]
//             [--tools-lines N]

#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
    e2e::Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << a << "\n";
                return 2;
            }
            const std::string v = argv[++i];
            if (a == "--workload") opt.workload = v;
            else if (a == "--seed") opt.seed = std::stoull(v);
            else if (a == "--seconds") opt.seconds = std::stod(v);
            else if (a == "--trace") opt.trace = std::stoi(v) != 0;
            else if (a == "--out-dir") opt.out_dir = v;
            else if (a == "--commit") opt.commit = v;
            else if (a == "--src-lines") opt.src_lines = std::stoll(v);
            else if (a == "--tools-lines") opt.tools_lines = std::stoll(v);
            else {
                std::cerr << "unknown argument " << a << "\n";
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "bad argument: " << e.what() << "\n";
        return 2;
    }
#ifndef E2E_TRACED
    if (opt.trace) {
        std::cerr << "--trace 1 needs the e2e_bench_traced binary\n";
        return 2;
    }
#endif
    return e2e::run_benchmark(opt);
}
