/**
 * @file
 * Google-benchmark microbenchmarks for the hot software kernels:
 * samplers, BDI codec, CSR traversal, the DES event queue and the GEMM
 * kernel. These
 * measure the reproduction's own implementation speed (host-side),
 * complementing the modeled-hardware harnesses.
 */

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "axe/gemm_kernel.hh"
#include "common/rng.hh"
#include "graph/generator.hh"
#include "mof/bdi.hh"
#include "sampling/sampler.hh"
#include "sim/event_queue.hh"

namespace {

using namespace lsdgnn;

void
BM_SamplerStandard(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    std::vector<graph::NodeId> cand(n);
    std::iota(cand.begin(), cand.end(), 0);
    sampling::StandardRandomSampler sampler;
    Rng rng(1);
    std::vector<graph::NodeId> out;
    for (auto _ : state) {
        out.clear();
        sampler.sample(cand, 10, rng, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SamplerStandard)->Arg(32)->Arg(1024)->Arg(32768);

void
BM_SamplerStreaming(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    std::vector<graph::NodeId> cand(n);
    std::iota(cand.begin(), cand.end(), 0);
    sampling::StreamingStepSampler sampler;
    Rng rng(1);
    std::vector<graph::NodeId> out;
    for (auto _ : state) {
        out.clear();
        sampler.sample(cand, 10, rng, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SamplerStreaming)->Arg(32)->Arg(1024)->Arg(32768);

void
BM_BdiCompress(benchmark::State &state)
{
    Rng rng(3);
    std::vector<std::uint64_t> words(
        static_cast<std::size_t>(state.range(0)));
    for (auto &w : words)
        w = 1'000'000 + rng.nextBounded(65536);
    for (auto _ : state) {
        auto result = mof::bdiCompress(words);
        benchmark::DoNotOptimize(result.bytes.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(words.size() * 8));
}
BENCHMARK(BM_BdiCompress)->Arg(128)->Arg(4096);

void
BM_GraphGeneration(benchmark::State &state)
{
    graph::GeneratorParams params;
    params.num_nodes = static_cast<std::uint64_t>(state.range(0));
    params.num_edges = params.num_nodes * 10;
    for (auto _ : state) {
        auto g = graph::generatePowerLawGraph(params);
        benchmark::DoNotOptimize(g.numEdges());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(params.num_edges));
}
BENCHMARK(BM_GraphGeneration)->Arg(1000)->Arg(10000);

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(static_cast<Tick>(i * 7 % 1000),
                        [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

/**
 * The GEMM kernel at MxKxN on one ISA variant (range 3, a GemmIsa);
 * reports GFLOP/s as the "GFLOP" rate. The variant gemm() picks on
 * this CPU is the standalone view of perfbench's axe.gemm_gflops.
 */
void
BM_Gemm(benchmark::State &state)
{
    const auto m = static_cast<std::uint32_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    const auto n = static_cast<std::uint32_t>(state.range(2));
    const auto isa = static_cast<axe::GemmIsa>(state.range(3));
    Rng rng(1);
    const auto fill = [&rng](std::size_t count) {
        std::vector<float> v(count);
        for (float &x : v)
            x = static_cast<float>(rng.nextDouble() - 0.5);
        return v;
    };
    const std::vector<float> a = fill(std::size_t{m} * k);
    const std::vector<float> b = fill(std::size_t{k} * n);
    std::vector<float> c(std::size_t{m} * n);
    axe::GemmArgs args;
    args.m = m;
    args.k = k;
    args.n = n;
    args.first = {a.data(), k, b.data(), n};
    args.c = c.data();
    args.ldc = n;
    for (auto _ : state) {
        axe::gemm(args, isa);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.counters["GFLOP"] = benchmark::Counter(
        2e-9 * m * k * n * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.SetLabel(std::string(axe::gemmIsaName(isa)) +
                   (isa == axe::gemmIsa() ? " (selected)" : ""));
}
// The forward's three shapes (layer 0 on the hop-1 rows, layer 0 on
// the roots, layer 1 on the roots: 64 roots x {10, 10}, 72 -> 256), on
// every variant this CPU can run.
void
gemmShapes(benchmark::internal::Benchmark *b)
{
    for (axe::GemmIsa isa : axe::supportedGemmIsas()) {
        const auto id = static_cast<std::int64_t>(isa);
        b->Args({640, 72, 256, id});
        b->Args({64, 72, 256, id});
        b->Args({64, 256, 256, id});
    }
}
BENCHMARK(BM_Gemm)->Apply(gemmShapes);

} // namespace

BENCHMARK_MAIN();
