/**
 * @file
 * wetperf: end-to-end benchmark of the WET pipeline, driven by
 * perfbench/run.py.
 *
 *   wetperf prep    --workload W --seed S --work DIR [--trace 0|1]
 *   wetperf measure --workload W --seed S --seconds N --work DIR
 *                   [--trace 0|1]
 *
 * `prep` (serving workloads only) builds or reuses the served
 * artifact, draws the seeded query lists and records reference
 * answers; it runs in its own process so that neither the build nor
 * the reference session counts toward the measured peak RSS.
 * `measure` runs the workload and prints one line per metric, then
 * the result JSON as its last line.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perf.h"

using namespace perf;

namespace {

/** Wall seconds for @p threads threads to each spin a fixed loop. */
double
spin(unsigned threads)
{
    const double t0 = nowUs();
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t)
        ts.emplace_back([] {
            volatile uint64_t x = 0;
            for (uint64_t i = 0; i < 40'000'000; ++i)
                x = x + i;
        });
    for (std::thread& t : ts)
        t.join();
    return (nowUs() - t0) / 1e6;
}

/** Aggregate CPU time counters of /proc/stat: {steal, total}. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    double v[8] = {};
    for (double& x : v)
        f >> x;
    double total = 0;
    for (double x : v)
        total += x;
    return {v[7], total};
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "wetperf: %s\nusage: wetperf prep|measure --workload W "
                 "--seed S --work DIR [--seconds N] [--trace 0|1]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    if (argc < 2)
        usage("missing mode");
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("option " + a + " needs a value").c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--work")
            opt.work = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (opt.workload.empty() || opt.work.empty())
        usage("--workload and --work are required");
    if (opt.mode != "prep" && opt.mode != "measure")
        usage("mode must be prep or measure");
    if (opt.workload != "build" && opt.workload != "interactive" &&
        opt.workload != "analysis" && opt.workload != "bounded")
        usage("unknown workload");
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WETPERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WETPERF_SANITIZED 1
#endif
#endif
#ifdef WETPERF_SANITIZED
    std::fprintf(stderr, "wetperf: refusing to record results from a "
                         "sanitizer build\n");
    return 2;
#endif
    const Options opt = parse(argc, argv);
    try {
        if (opt.mode == "prep")
            return opt.workload == "build" ? 0 : prepServing(opt);

        Outcome out;
        const auto ticks0 = cpuTicks();
        if (opt.workload == "build")
            runBuild(opt, out);
        else
            runServing(opt, out);

        // Host fingerprint: cores, the share of CPU time the host
        // stole during the run, effective parallelism of a spin probe
        // (1 thread vs all), build, and the run's sizes.
        const auto ticks1 = cpuTicks();
        out.facts["steal_frac"] = std::to_string(
            (ticks1.first - ticks0.first) /
            std::max(1.0, ticks1.second - ticks0.second));
        const unsigned cores = std::thread::hardware_concurrency();
        const double t1 = spin(1);
        const double tn = spin(cores);
        out.facts["nproc"] = std::to_string(cores);
        out.facts["effective_parallelism"] =
            std::to_string(cores * t1 / tn);
        out.facts["build_type"] = WETPERF_BUILD_TYPE;
        out.facts["compiler"] = WETPERF_COMPILER;
        out.facts["workload"] = opt.workload;
        out.facts["seed"] = std::to_string(opt.seed);
        out.facts["seconds"] = std::to_string(opt.seconds);
        out.facts["trace"] = opt.trace ? "1" : "0";
        std::string facts;
        for (const auto& [k, v] : out.facts)
            facts += (facts.empty() ? "" : " ") + k + "=" + v;
        std::printf("host: %s\n", facts.c_str());

        // A layer a workload never calls reports 0 with no samples.
        const std::vector<Metric>& keep =
            opt.trace ? perLayerMetrics() : endToEndMetrics();
        for (const Metric& m : keep)
            if (!out.report.has(m.name))
                out.report.add(m.name, 0, m.unit, 0);
        out.report.print();
        std::printf("attempted %llu, failed %llu, error_frac %.6f\n",
                    static_cast<unsigned long long>(out.attempted),
                    static_cast<unsigned long long>(out.failed),
                    out.attempted ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0);
        const std::string json = out.report.json(
            out.failed == 0 && out.attempted > 0, out.attempted,
            out.failed, keep);
        std::ofstream(opt.work + "/result-" + opt.workload + "-" +
                          std::to_string(opt.seed) + "-" +
                          (opt.trace ? "1" : "0") + ".txt",
                      std::ios::trunc)
            << "host: " << facts << "\n" << json << "\n";
        if (opt.trace)
            tracer().write(opt.work + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl");
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wetperf: %s\n", e.what());
        return 1;
    }
}
