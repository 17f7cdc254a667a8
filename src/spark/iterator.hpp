// Pull-based iterators: the unit of computation inside a Spark stage.
//
// Spark pipelines narrow dependencies lazily — a task pulls records through
// the whole map/filter chain one at a time; only shuffles materialize.
// This matters to the paper's measurement: output records are produced
// *while* upstream work happens, so the first-to-last output-append span
// covers the processing time (not just a final write burst).
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace dsps::spark {

template <typename T>
class Iterator {
 public:
  virtual ~Iterator() = default;
  /// The next element, or nullopt at the end.
  virtual std::optional<T> next() = 0;
};

template <typename T>
using IterPtr = std::unique_ptr<Iterator<T>>;

/// Iterates a shared vector in place, returning a copy of each element.
/// The iterator holds a reference to the vector, so it stays valid after
/// every other owner lets go.
template <typename T>
class SliceIterator final : public Iterator<T> {
 public:
  explicit SliceIterator(std::shared_ptr<const std::vector<T>> values)
      : values_(std::move(values)) {}

  std::optional<T> next() override {
    if (index_ >= values_->size()) return std::nullopt;
    return (*values_)[index_++];
  }

 private:
  std::shared_ptr<const std::vector<T>> values_;
  std::size_t index_ = 0;
};

/// Drains an iterator into a vector.
template <typename T>
std::vector<T> drain(Iterator<T>& iterator) {
  std::vector<T> out;
  while (auto value = iterator.next()) out.push_back(std::move(*value));
  return out;
}

}  // namespace dsps::spark
