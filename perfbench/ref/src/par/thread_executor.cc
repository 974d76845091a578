#include "par/thread_executor.h"

#include <algorithm>

namespace silo::par {

ThreadPoolExecutor::ThreadPoolExecutor(int threads) {
  const int extra = std::max(0, threads - 1);  // the caller is a worker too
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPoolExecutor::run_bodies() {
  // Claim tickets until the round is exhausted. Bodies run unlocked; any
  // exception is recorded under the lock with its index.
  std::unique_lock<std::mutex> lock(mu_);
  while (next_index_ < round_n_) {
    const int i = next_index_++;
    ++in_flight_;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*fn_)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err) errors_.emplace_back(i, err);
    if (--in_flight_ == 0 && next_index_ >= round_n_)
      done_cv_.notify_all();
  }
}

void ThreadPoolExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
    }
    run_bodies();
  }
}

void ThreadPoolExecutor::parallel_for(int n,
                                      const std::function<void(int)>& fn) {
  if (n <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    round_n_ = n;
    next_index_ = 0;
    in_flight_ = 0;
    errors_.clear();
    ++round_;
  }
  work_cv_.notify_all();
  run_bodies();  // the calling thread pulls tickets too
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return in_flight_ == 0 && next_index_ >= round_n_; });
  fn_ = nullptr;
  if (!errors_.empty()) {
    // Deterministic error selection: rethrow the lowest island index.
    std::sort(errors_.begin(), errors_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::exception_ptr err = errors_.front().second;
    errors_.clear();
    std::rethrow_exception(err);
  }
}

}  // namespace silo::par
