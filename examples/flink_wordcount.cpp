// Native Flink-sim API tour: a streaming word count over search queries —
// map each query to its words, rebalance, and tally the words in a sink
// shared by all subtasks — plus the execution plan and the chaining effect.
//
//   $ ./examples/flink_wordcount
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "common/strings.hpp"
#include "flink/environment.hpp"

using namespace dsps;

namespace {

flink::SourceFactory query_source() {
  class QuerySource final : public flink::SourceFunction {
   public:
    void open(const flink::RuntimeContext& context) override {
      // Parallel sources shard their input: subtask i emits every
      // parallelism-th record (otherwise each subtask would emit all of
      // them and every count would be multiplied).
      shard_ = context.subtask_index;
      stride_ = context.parallelism;
    }
    void run(flink::SourceContext& context) override {
      const char* queries[] = {
          "cheap flight tickets", "cheap hotel", "flight status",
          "hotel near beach",     "beach weather", "cheap beach hotel",
      };
      for (std::size_t i = static_cast<std::size_t>(shard_);
           i < std::size(queries); i += static_cast<std::size_t>(stride_)) {
        context.collect(flink::make_elem<std::string>(queries[i]));
      }
    }

   private:
    int shard_ = 0;
    int stride_ = 1;
  };
  return [] { return std::make_unique<QuerySource>(); };
}

}  // namespace

int main() {
  flink::StreamExecutionEnvironment env;
  env.set_parallelism(2);

  auto counts = std::make_shared<std::map<std::string, int>>();
  auto mutex = std::make_shared<std::mutex>();

  env.add_source<std::string>(query_source(), "Search Queries")
      .map<std::vector<std::string>>(
          [](const std::string& query) { return split(query, ' '); },
          "Tokenize")
      .rebalance()
      .for_each(
          [counts, mutex](const std::vector<std::string>& words) {
            std::lock_guard lock(*mutex);
            for (const auto& word : words) ++(*counts)[word];
          },
          "Tally");

  std::printf("=== execution plan (rebalance breaks the chain) ===\n%s\n",
              env.execution_plan().c_str());

  auto result = env.execute("wordcount");
  result.status().expect_ok();

  std::printf("=== word counts ===\n");
  for (const auto& [word, count] : *counts) {
    std::printf("  %-10s %d\n", word.c_str(), count);
  }
  std::printf("\njob ran in %.2f ms across %zu job vertices\n",
              result.value().duration_ms,
              result.value().vertex_names.size());
  return 0;
}
