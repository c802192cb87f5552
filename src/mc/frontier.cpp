#include "mc/frontier.h"

#include <deque>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace nicemc::mc {

namespace {

/// Frontier::give_half over a random-access node container kept in
/// for_each order.
template <typename Container>
void give_front_half(Container& nodes, std::deque<SearchNode>& out) {
  const std::size_t n = nodes.size() / 2;
  for (std::size_t i = n; i-- > 0;) out.push_back(std::move(nodes[i]));
  nodes.erase(nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(n));
}

class DfsFrontier final : public Frontier {
 public:
  void push(SearchNode node) override { stack_.push_back(std::move(node)); }

  bool pop(SearchNode& out) override {
    if (stack_.empty()) return false;
    out = std::move(stack_.back());
    stack_.pop_back();
    return true;
  }

  [[nodiscard]] bool empty() const override { return stack_.empty(); }
  [[nodiscard]] std::size_t size() const override { return stack_.size(); }

  void for_each(
      const std::function<void(const SearchNode&)>& fn) const override {
    // Bottom-to-top: re-pushing in this order rebuilds the same stack.
    for (const SearchNode& n : stack_) fn(n);
  }

  void give_half(std::deque<SearchNode>& out) override {
    give_front_half(stack_, out);
  }

 private:
  std::vector<SearchNode> stack_;
};

class BfsFrontier final : public Frontier {
 public:
  void push(SearchNode node) override { queue_.push_back(std::move(node)); }

  bool pop(SearchNode& out) override {
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  [[nodiscard]] bool empty() const override { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

  void for_each(
      const std::function<void(const SearchNode&)>& fn) const override {
    // Front-to-back: re-pushing in this order rebuilds the same queue.
    for (const SearchNode& n : queue_) fn(n);
  }

  void give_half(std::deque<SearchNode>& out) override {
    give_front_half(queue_, out);
  }

 private:
  std::deque<SearchNode> queue_;
};

/// Pops a uniformly random pending entry by swapping it with the back —
/// O(1) per pop, and deterministic for a fixed seed and push sequence.
class RandomFrontier final : public Frontier {
 public:
  explicit RandomFrontier(std::uint64_t seed) : rng_(seed) {}

  void push(SearchNode node) override { pool_.push_back(std::move(node)); }

  bool pop(SearchNode& out) override {
    if (pool_.empty()) return false;
    const std::size_t i =
        static_cast<std::size_t>(rng_.next_below(pool_.size()));
    if (i != pool_.size() - 1) std::swap(pool_[i], pool_.back());
    out = std::move(pool_.back());
    pool_.pop_back();
    return true;
  }

  [[nodiscard]] bool empty() const override { return pool_.empty(); }
  [[nodiscard]] std::size_t size() const override { return pool_.size(); }

  void for_each(
      const std::function<void(const SearchNode&)>& fn) const override {
    // Pool order + the saved RNG state reproduce the same pop sequence.
    for (const SearchNode& n : pool_) fn(n);
  }

  void give_half(std::deque<SearchNode>& out) override {
    give_front_half(pool_, out);
  }

  [[nodiscard]] std::uint64_t rng_state() const override {
    return rng_.state();
  }
  void set_rng_state(std::uint64_t state) override { rng_.set_state(state); }

 private:
  util::SplitMix64 rng_;
  std::vector<SearchNode> pool_;
};

}  // namespace

std::string frontier_name(FrontierKind kind) {
  switch (kind) {
    case FrontierKind::kDfs:
      return "dfs";
    case FrontierKind::kBfs:
      return "bfs";
    case FrontierKind::kRandom:
      return "random";
  }
  return "unknown";
}

std::unique_ptr<Frontier> make_frontier(FrontierKind kind,
                                        std::uint64_t seed) {
  switch (kind) {
    case FrontierKind::kBfs:
      return std::make_unique<BfsFrontier>();
    case FrontierKind::kRandom:
      return std::make_unique<RandomFrontier>(seed);
    case FrontierKind::kDfs:
      break;
  }
  return std::make_unique<DfsFrontier>();
}

}  // namespace nicemc::mc
