#include "src/platform/mutex.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

namespace mtdb {
namespace platform {

namespace {

struct HeldEntry {
  const LockOrderGraph* graph;
  std::string name;
};

// The per-thread stack of instrumented locks currently held, across all
// graphs (tests run private graphs alongside the global one).
std::vector<HeldEntry>& TlsHeldStack() {
  static thread_local std::vector<HeldEntry> held;
  return held;
}

}  // namespace

LockOrderGraph& LockOrderGraph::Global() {
  // Intentionally leaked: worker threads may still be locking
  // instrumented mutexes during static destruction at process exit.
  static LockOrderGraph* graph = new LockOrderGraph();
  return *graph;
}

std::vector<std::string> LockOrderGraph::FindPath(
    const std::string& from, const std::string& to) const {
  // BFS from `from` to `to` over recorded edges; returns the node path
  // (inclusive of both endpoints), or empty when unreachable.
  std::map<std::string, std::string> parent;  // node -> predecessor
  std::deque<std::string> frontier = {from};
  parent[from] = from;
  while (!frontier.empty()) {
    std::string node = frontier.front();
    frontier.pop_front();
    auto it = edges_.find(node);
    if (it == edges_.end()) continue;
    for (const std::string& next : it->second) {
      if (parent.count(next) > 0) continue;
      parent[next] = node;
      if (next == to) {
        std::vector<std::string> path = {next};
        for (std::string cur = node; cur != from; cur = parent[cur]) {
          path.push_back(cur);
        }
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return {};
}

void LockOrderGraph::OnAcquire(const std::string& name) {
  std::vector<HeldEntry>& held = TlsHeldStack();
  {
    std::lock_guard<std::mutex> lock(mu_);  // mtdblint: allow(raw-mutex)
    for (const HeldEntry& entry : held) {
      if (entry.graph != this) continue;
      if (entry.name == name) {
        analysis::ReportViolation(
            "lock-order",
            "recursive acquisition of lock class " + name +
                " on one thread (self-deadlock if the two "
                "acquisitions ever hit the same instance)");
        continue;
      }
      std::set<std::string>& out = edges_[entry.name];
      if (out.count(name) > 0) continue;  // known-safe ordering
      // Adding entry.name -> name closes a cycle iff name already reaches
      // entry.name.
      std::vector<std::string> path = FindPath(name, entry.name);
      if (!path.empty()) {
        std::ostringstream cycle;
        cycle << entry.name;
        for (const std::string& node : path) cycle << " -> " << node;
        analysis::ReportViolation(
            "lock-order", "lock-order inversion: acquiring " + name +
                              " while holding " + entry.name +
                              " closes the cycle " + cycle.str());
      }
      // Record the edge either way so each inverted pair reports once.
      out.insert(name);
    }
  }
  held.push_back(HeldEntry{this, name});
}

void LockOrderGraph::OnRelease(const std::string& name) {
  std::vector<HeldEntry>& held = TlsHeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->graph == this && it->name == name) {
      held.erase(std::next(it).base());
      return;
    }
  }
  // Unlock of a lock this thread never recorded: the underlying std::mutex
  // misuse is UB anyway; nothing sane to report here.
}

size_t LockOrderGraph::EdgeCount() const {
  std::lock_guard<std::mutex> lock(mu_);  // mtdblint: allow(raw-mutex)
  size_t count = 0;
  for (const auto& [node, out] : edges_) count += out.size();
  return count;
}

bool LockOrderGraph::HasEdge(const std::string& from,
                             const std::string& to) const {
  std::lock_guard<std::mutex> lock(mu_);  // mtdblint: allow(raw-mutex)
  auto it = edges_.find(from);
  return it != edges_.end() && it->second.count(to) > 0;
}

void LockOrderGraph::Clear() {
  std::lock_guard<std::mutex> lock(mu_);  // mtdblint: allow(raw-mutex)
  edges_.clear();
}

}  // namespace platform
}  // namespace mtdb
