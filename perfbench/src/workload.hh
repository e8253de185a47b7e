/**
 * @file
 * The benchmark's named workloads and the output checks every reply
 * goes through.
 *
 * Each workload is one traffic shape against service::Service: a
 * ServiceConfig, a job kind and plan, and a load loop (closed loop
 * with K clients, or open loop at a fixed Poisson rate). Inputs derive
 * from the workload seed only: per-job sampling seeds and the arrival
 * schedule are pure functions of it.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/config.hh"
#include "service/job.hh"

namespace perfbench {

namespace svc = lsdgnn::service;

/** How the load side offers requests. */
enum class Loop {
    Closed, ///< K clients, one request outstanding each
    Open,   ///< Poisson arrivals at a fixed rate
};

struct Workload {
    std::string name;
    svc::ServiceConfig config;
    svc::JobKind kind = svc::JobKind::Sample;
    lsdgnn::sampling::SamplePlan plan;
    /** Every job carries its own nonzero sampling seed. */
    bool seeded = false;
    Loop loop = Loop::Closed;
    /** Closed loop: clients (one request outstanding each). */
    std::uint32_t clients = 0;
    /**
     * Closed loop: when no reply is ready, the load thread blocks on
     * its oldest outstanding request for up to this long; 0 spins.
     * Spinning saves the wake-up a short request would otherwise wait
     * for, but takes a CPU the host could give to the service.
     */
    std::uint32_t idle_wait_us = 0;
    /** Open loop: offered requests per second. */
    double rate_qps = 0.0;
    /**
     * Seeded replies the untraced run re-derives through the layers
     * and compares digest for digest (spread evenly over the run).
     */
    std::size_t replay_checks = 0;
    /**
     * Window jobs the traced run replays through the layers with
     * spans (spread evenly over the window).
     */
    std::size_t replay_jobs = 0;
    /** Every record_stride-th request of a stream keeps a Record. */
    std::uint32_t record_stride = 1;
    /** Upper bound on the request rate; sizes the per-request buffers. */
    double max_qps = 0.0;
};

/** The workload called @p name, or nullopt. */
std::optional<Workload> findWorkload(std::string_view name);

/**
 * Nonzero sampling seed of job @p index of load stream @p stream
 * (a client, the generator, the set-up probes) under @p workload_seed.
 */
std::uint64_t jobSeed(std::uint64_t workload_seed, std::uint64_t stream,
                      std::uint64_t index);

/** The job a stream submits: the workload's kind, plan and seed. */
svc::Job makeJob(const Workload &w, std::uint64_t seed);

/**
 * 64-bit FNV-1a digest over the payload's 8-byte words (roots,
 * frontiers and parents for a sample; shape and rows for
 * embeddings). Any single changed word changes the digest.
 */
std::uint64_t digest(const lsdgnn::sampling::SampleResult &batch);
std::uint64_t digest(const lsdgnn::gnn::Matrix &embeddings);

/**
 * Structural check of one reply's payload against its plan: root
 * count, per-hop frontier sizes within the fan-out products, parents
 * in range, node ids below @p num_nodes; embeddings one finite row
 * per root at the model width. Empty when valid, else the reason.
 */
std::string checkReply(const svc::Reply &reply, const Workload &w,
                       std::uint64_t num_nodes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
