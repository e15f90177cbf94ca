#ifndef MMCONF_COMMON_LRU_H_
#define MMCONF_COMMON_LRU_H_

#include <cstddef>
#include <list>
#include <map>
#include <ranges>
#include <string>
#include <string_view>
#include <utility>

namespace mmconf {

/// Byte-bounded recency index: string keys, each node holding its billed
/// bytes and a value, from most to least recently used. It never evicts
/// on its own: a cache walks LeastRecentFirst(), picks its victim and
/// Erases it, so the replacement policy stays with the cache.
template <typename Value>
class LruIndex {
 public:
  struct Node {
    std::string key;
    size_t bytes = 0;
    Value value;
  };
  struct AnyValue {
    bool operator()(const Value&) const { return true; }
  };

  LruIndex() = default;
  // index_ points into order_'s nodes: a move carries them, a copy would not.
  LruIndex(const LruIndex&) = delete;
  LruIndex& operator=(const LruIndex&) = delete;
  LruIndex(LruIndex&&) = default;
  LruIndex& operator=(LruIndex&&) = default;

  size_t size() const { return order_.size(); }
  size_t used_bytes() const { return used_; }

  /// The value under `key`, or null. Recency is unchanged.
  const Value* Find(const std::string& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// The value under `key` if `usable(value)` holds, else null. A
  /// returned value becomes the most recent.
  template <typename Usable = AnyValue>
  Value* FindAndTouch(const std::string& key, Usable usable = {}) {
    auto it = index_.find(key);
    if (it == index_.end() || !usable(std::as_const(it->second->value))) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Inserts `key` as the most recent, replacing any entry under it.
  void InsertFront(std::string key, size_t bytes, Value value) {
    Erase(key);
    order_.push_front(Node{std::move(key), bytes, std::move(value)});
    index_.emplace(order_.front().key, order_.begin());
    used_ += bytes;
  }

  /// Erases `key` if present; `key` may be a node's own key.
  void Erase(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    auto node = it->second;
    index_.erase(it);
    used_ -= node->bytes;
    order_.erase(node);
  }

  /// Erases every node for which `pred(node)` holds.
  template <typename Pred>
  void EraseIf(Pred pred) {
    for (auto node = order_.begin(); node != order_.end();) {
      if (pred(std::as_const(*node))) {
        index_.erase(node->key);
        used_ -= node->bytes;
        node = order_.erase(node);
      } else {
        ++node;
      }
    }
  }

  /// Every node, from the least to the most recent.
  auto LeastRecentFirst() const { return std::views::reverse(order_); }

 private:
  using List = std::list<Node>;

  List order_;  ///< front = most recent
  std::map<std::string_view, typename List::iterator> index_;  ///< node keys
  size_t used_ = 0;
};

}  // namespace mmconf

#endif  // MMCONF_COMMON_LRU_H_
