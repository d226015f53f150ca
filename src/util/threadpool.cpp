#include "threadpool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/env.h"

namespace cl {

namespace {

/** Set while a thread is executing pool work; nested parallelFor
 *  calls from inside a kernel degrade to serial loops. */
thread_local bool t_inPoolWork = false;

/** Largest worker count CL_THREADS accepts. */
constexpr unsigned kMaxEnvThreads = 1024;

unsigned
envThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        envUnsigned("CL_THREADS", hw, 1, kMaxEnvThreads));
}

} // namespace

struct ThreadPool::Impl
{
    std::vector<std::thread> workers;

    std::mutex jobMutex; // serializes concurrent parallelFor callers

    std::mutex m;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t end = 0;
    std::atomic<std::size_t> next{0};
    unsigned active = 0;   // workers still inside the current job
    std::uint64_t gen = 0; // bumped per job so workers see new work
    bool stop = false;

    void
    runIndices(const std::function<void(std::size_t)> &f)
    {
        // Save/restore rather than set/clear: the caller thread that
        // acts as worker #0 may already be marked (a WorkerScope
        // worker can only reach here through a future code path that
        // bypasses the inline check), and clearing its mark here
        // would let a later nested parallelFor on the same thread fan
        // out and deadlock on the jobMutex it already holds.
        const bool prev = t_inPoolWork;
        t_inPoolWork = true;
        std::size_t i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < end)
            f(i);
        t_inPoolWork = prev;
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(std::size_t)> *f;
            {
                std::unique_lock<std::mutex> lk(m);
                cvStart.wait(lk,
                             [&] { return stop || gen != seen; });
                if (stop)
                    return;
                seen = gen;
                f = fn;
            }
            runIndices(*f);
            {
                std::lock_guard<std::mutex> lk(m);
                if (--active == 0)
                    cvDone.notify_all();
            }
        }
    }
};

ThreadPool::ThreadPool(unsigned nthreads)
    : nthreads_(nthreads == 0 ? envThreads() : nthreads)
{
    if (nthreads_ <= 1)
        return;
    impl_ = std::make_unique<Impl>();
    impl_->workers.reserve(nthreads_ - 1);
    for (unsigned i = 0; i + 1 < nthreads_; ++i)
        impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (!impl_)
        return;
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        impl_->stop = true;
    }
    impl_->cvStart.notify_all();
    for (auto &w : impl_->workers)
        w.join();
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &fn,
                        std::size_t grain)
{
    if (begin >= end)
        return;
    if (!impl_ || end - begin <= std::max<std::size_t>(grain, 1) ||
        t_inPoolWork) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> job(impl_->jobMutex);
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        impl_->fn = &fn;
        impl_->end = end;
        impl_->next.store(begin, std::memory_order_relaxed);
        impl_->active =
            static_cast<unsigned>(impl_->workers.size());
        ++impl_->gen;
    }
    impl_->cvStart.notify_all();
    impl_->runIndices(fn); // the caller is worker #0
    std::unique_lock<std::mutex> lk(impl_->m);
    impl_->cvDone.wait(lk, [&] { return impl_->active == 0; });
    impl_->fn = nullptr;
}

bool
ThreadPool::inWorkerContext()
{
    return t_inPoolWork;
}

ThreadPool::WorkerScope::WorkerScope() : prev_(t_inPoolWork)
{
    t_inPoolWork = true;
}

ThreadPool::WorkerScope::~WorkerScope()
{
    t_inPoolWork = prev_;
}

namespace {

std::unique_ptr<ThreadPool> g_pool;
std::mutex g_poolMutex;

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(g_poolMutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(0);
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(unsigned nthreads)
{
    std::lock_guard<std::mutex> lk(g_poolMutex);
    g_pool = std::make_unique<ThreadPool>(nthreads == 0 ? 1 : nthreads);
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &fn,
            std::size_t grain)
{
    ThreadPool::global().parallelFor(begin, end, fn, grain);
}

} // namespace cl
