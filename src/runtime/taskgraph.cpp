#include "taskgraph.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/common.h"
#include "util/env.h"
#include "util/threadpool.h"

namespace cl {

const char *
execModeName(ExecMode m)
{
    switch (m) {
    case ExecMode::Serial:
        return "serial";
    case ExecMode::Graph:
        return "graph";
    }
    return "?";
}

constexpr EnvChoice kExecModes[] = {
    {"serial", static_cast<int>(ExecMode::Serial)},
    {"graph", static_cast<int>(ExecMode::Graph)},
};

ExecMode
execModeByName(const std::string &name)
{
    if (const auto m = parseChoice(name.c_str(), kExecModes))
        return static_cast<ExecMode>(*m);
    CL_FATAL("unknown exec mode '", name, "' (serial, graph)");
}

ExecMode
execModeFromEnv()
{
    return static_cast<ExecMode>(
        envChoice("CL_EXEC", kExecModes, static_cast<int>(ExecMode::Graph)));
}

TaskGraph::TaskId
TaskGraph::add(std::function<void()> fn, std::vector<TaskId> deps,
               std::uint64_t weight)
{
    const TaskId id = static_cast<TaskId>(tasks_.size());
    Task t;
    t.fn = std::move(fn);
    t.weight = weight;

    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    for (TaskId d : deps) {
        CL_ASSERT(d < id, "task dependencies must be earlier tasks");
        tasks_[d].succs.push_back(id);
        ++t.preds;
        ++edges_;
    }
    tasks_.push_back(std::move(t));
    return id;
}

namespace {

/**
 * One worker's ready queue: a binary max-heap ordered by
 * (height desc, id asc). Pops under the owner's lock; thieves pop
 * under the same lock — tasks run for microseconds to milliseconds,
 * so one mutex per queue is far below the noise floor.
 */
struct ReadyQueue
{
    std::mutex m;
    std::vector<std::pair<std::uint64_t, TaskGraph::TaskId>> heap;

    static bool
    less(const std::pair<std::uint64_t, TaskGraph::TaskId> &a,
         const std::pair<std::uint64_t, TaskGraph::TaskId> &b)
    {
        // Max-heap on height; lower id wins ties (older ops first).
        if (a.first != b.first)
            return a.first < b.first;
        return a.second > b.second;
    }

    void
    push(std::uint64_t height, TaskGraph::TaskId id)
    {
        std::lock_guard<std::mutex> lk(m);
        heap.emplace_back(height, id);
        std::push_heap(heap.begin(), heap.end(), less);
    }

    bool
    pop(TaskGraph::TaskId &out)
    {
        std::lock_guard<std::mutex> lk(m);
        if (heap.empty())
            return false;
        std::pop_heap(heap.begin(), heap.end(), less);
        out = heap.back().second;
        heap.pop_back();
        return true;
    }
};

} // namespace

TaskGraphStats
TaskGraph::run(ExecMode mode, unsigned threads)
{
    CL_ASSERT(!ran_, "a TaskGraph may be run only once");
    ran_ = true;

    // Heights: weight-inclusive critical path to a sink (tasks are in
    // topological order by construction, so one backward pass does it).
    std::uint64_t critical = 0;
    for (std::size_t i = tasks_.size(); i-- > 0;) {
        std::uint64_t succ_max = 0;
        for (TaskId s : tasks_[i].succs)
            succ_max = std::max(succ_max, tasks_[s].height);
        tasks_[i].height = tasks_[i].weight + succ_max;
        critical = std::max(critical, tasks_[i].height);
    }

    TaskGraphStats stats;
    stats.tasks = tasks_.size();
    stats.edges = edges_;
    stats.criticalPath = critical;

    if (mode == ExecMode::Serial || tasks_.empty()) {
        for (Task &t : tasks_)
            t.fn();
        return stats;
    }

    const unsigned nthreads = std::max(
        1u, threads != 0 ? threads : ThreadPool::global().threads());
    stats.threads = nthreads;

    std::vector<std::atomic<std::uint32_t>> preds(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        preds[i].store(tasks_[i].preds, std::memory_order_relaxed);

    std::vector<ReadyQueue> queues(nthreads);
    std::atomic<std::size_t> remaining{tasks_.size()};
    std::atomic<std::uint64_t> steals{0};
    std::mutex idleMutex;
    std::condition_variable idleCv;
    std::atomic<std::size_t> readyCount{0};

    // Seed the initial frontier round-robin in descending height
    // order, so every worker starts near the critical path.
    {
        std::vector<TaskId> roots;
        for (std::size_t i = 0; i < tasks_.size(); ++i) {
            if (tasks_[i].preds == 0)
                roots.push_back(static_cast<TaskId>(i));
        }
        std::sort(roots.begin(), roots.end(), [&](TaskId a, TaskId b) {
            if (tasks_[a].height != tasks_[b].height)
                return tasks_[a].height > tasks_[b].height;
            return a < b;
        });
        for (std::size_t r = 0; r < roots.size(); ++r)
            queues[r % nthreads].push(tasks_[roots[r]].height,
                                      roots[r]);
        readyCount.store(roots.size(), std::memory_order_relaxed);
    }

    auto worker = [&](unsigned self) {
        // Graph workers inline any nested parallelFor (see
        // threadpool.h WorkerScope): never deadlock on the pool's job
        // lock, never oversubscribe graph workers with pool workers.
        ThreadPool::WorkerScope scope;
        for (;;) {
            if (remaining.load(std::memory_order_acquire) == 0)
                return;
            TaskId id;
            bool got = queues[self].pop(id);
            if (!got) {
                for (unsigned v = 1; v < nthreads && !got; ++v) {
                    got = queues[(self + v) % nthreads].pop(id);
                    if (got)
                        steals.fetch_add(1, std::memory_order_relaxed);
                }
            }
            if (!got) {
                std::unique_lock<std::mutex> lk(idleMutex);
                idleCv.wait(lk, [&] {
                    return remaining.load(std::memory_order_acquire) ==
                               0 ||
                           readyCount.load(std::memory_order_acquire) >
                               0;
                });
                continue;
            }
            readyCount.fetch_sub(1, std::memory_order_acq_rel);

            tasks_[id].fn();

            std::size_t woken = 0;
            for (TaskId s : tasks_[id].succs) {
                if (preds[s].fetch_sub(1, std::memory_order_acq_rel) ==
                    1) {
                    queues[self].push(tasks_[s].height, s);
                    readyCount.fetch_add(1,
                                         std::memory_order_acq_rel);
                    ++woken;
                }
            }
            const std::size_t left =
                remaining.fetch_sub(1, std::memory_order_acq_rel) - 1;
            if (left == 0 || woken > 0) {
                std::lock_guard<std::mutex> lk(idleMutex);
                idleCv.notify_all();
            }
        }
    };

    std::vector<std::thread> extra;
    extra.reserve(nthreads - 1);
    for (unsigned w = 1; w < nthreads; ++w)
        extra.emplace_back(worker, w);
    worker(0); // the calling thread is worker #0
    for (std::thread &t : extra)
        t.join();

    stats.steals = steals.load(std::memory_order_relaxed);
    return stats;
}

TaskGraphStats
runTaskBatch(const std::vector<std::function<void()>> &fns,
             ExecMode mode, unsigned threads)
{
    TaskGraph g;
    for (const auto &fn : fns)
        g.add(fn);
    return g.run(mode, threads);
}

} // namespace cl
