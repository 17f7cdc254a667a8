#include "queries/nexmark_queries.hpp"

#include "beam/runners/apex_runner.hpp"
#include "beam/runners/flink_runner.hpp"
#include "beam/runners/spark_runner.hpp"
#include "beam/windowing.hpp"

namespace dsps::beam {

namespace {

class BidCoder final : public Coder {
 public:
  void encode(const Value& value, BinaryWriter& out) const override {
    const auto& bid = value.get<workload::Bid>();
    out.write_i64(bid.auction);
    out.write_i64(bid.bidder);
    out.write_i64(bid.price);
    out.write_i64(bid.date_time);
  }
  Value decode(BinaryReader& in) const override {
    workload::Bid bid;
    bid.auction = in.read_i64();
    bid.bidder = in.read_i64();
    bid.price = in.read_i64();
    bid.date_time = in.read_i64();
    return bid;
  }
  std::string name() const override { return "BidCoder"; }
  std::size_t encoded_size_hint(const Value& value) const override {
    (void)value;
    return 4 * sizeof(std::int64_t);
  }
};

}  // namespace

CoderPtr CoderTraits<workload::Bid>::of() {
  return std::make_shared<BidCoder>();
}

}  // namespace dsps::beam

namespace dsps::queries {

namespace {

using workload::Bid;

/// Parses bid lines and re-stamps elements with the bid's event time, so
/// windowing downstream is event-time based. Parses straight off the
/// payload view — no line copy.
class ParseBidDoFn final : public beam::DoFn<runtime::Payload, Bid> {
 public:
  void process(ProcessContext& context) override {
    Bid bid = Bid::from_line(context.element().view());
    const Timestamp event_time = bid.date_time;
    context.output_with_timestamp(std::move(bid), event_time);
  }
};

beam::PCollection<Bid> read_bids(beam::Pipeline& pipeline,
                                 const QueryContext& ctx) {
  return pipeline
      .apply(beam::KafkaIO::read(
          *ctx.broker, beam::KafkaReadConfig{.topic = ctx.input_topic}))
      .apply(beam::KafkaIO::without_metadata())
      .apply(beam::Values<runtime::Payload>::create<runtime::Payload>())
      .apply(beam::ParDo::of<runtime::Payload, Bid>(
          std::make_shared<ParseBidDoFn>(), "ParseBid"));
}

void write_lines(const beam::PCollection<std::string>& lines,
                 const QueryContext& ctx) {
  lines.apply(beam::KafkaIO::write(
      *ctx.broker, beam::KafkaWriteConfig{.topic = ctx.output_topic}));
}

}  // namespace

void build_nexmark_pipeline(beam::Pipeline& pipeline, NexmarkQuery query,
                            const QueryContext& ctx,
                            const NexmarkOptions& options) {
  auto bids = read_bids(pipeline, ctx);
  switch (query) {
    case NexmarkQuery::kQ1CurrencyConversion: {
      write_lines(
          bids.apply(beam::MapElements<Bid, std::string>::via(
              [](const Bid& bid) {
                Bid converted = bid;
                converted.price = workload::convert_usd_to_eur(bid.price);
                return converted.to_line();
              },
              "Q1/ConvertToEur")),
          ctx);
      return;
    }
    case NexmarkQuery::kQ2Selection: {
      write_lines(
          bids.apply(beam::Filter<Bid>::by(
                  [modulo = options.q2_auction_modulo](const Bid& bid) {
                    return bid.auction % modulo == 0;
                  },
                  "Q2/AuctionFilter"))
              .apply(beam::MapElements<Bid, std::string>::via(
                  [](const Bid& bid) { return bid.to_line(); },
                  "Q2/Format")),
          ctx);
      return;
    }
    case NexmarkQuery::kQWWindowedMaxBid: {
      using Keyed = beam::KV<std::int64_t, std::int64_t>;
      auto keyed = bids.apply(beam::MapElements<Bid, Keyed>::via(
          [](const Bid& bid) {
            return Keyed{bid.auction, bid.price};
          },
          "QW/KeyByAuction"));
      auto windowed = keyed.apply(beam::WindowInto<Keyed>(
          beam::fixed_windows(options.window_us), "QW/FixedWindows"));
      auto maxima =
          windowed.apply(beam::CombinePerKey<std::int64_t, std::int64_t>(
              [](const std::int64_t& a, const std::int64_t& b) {
                return std::max(a, b);
              },
              "QW/MaxBid"));
      // Format with the window start recovered from the event timestamp
      // (the combine output is stamped at window end - 1).
      struct Format final : beam::DoFn<Keyed, std::string> {
        std::int64_t window_us;
        explicit Format(std::int64_t w) : window_us(w) {}
        void process(ProcessContext& context) override {
          const Timestamp window_start =
              context.timestamp() - (window_us - 1);
          context.output(std::to_string(context.element().key) + "," +
                         std::to_string(window_start) + "," +
                         std::to_string(context.element().value));
        }
      };
      write_lines(maxima.apply(beam::ParDo::of<Keyed, std::string>(
                      std::make_shared<Format>(options.window_us),
                      "QW/Format")),
                  ctx);
      return;
    }
  }
  throw std::invalid_argument("unknown NEXMark query");
}

Status run_nexmark(Engine engine, NexmarkQuery query, const QueryContext& ctx,
                   const NexmarkOptions& options) {
  beam::Pipeline pipeline;
  build_nexmark_pipeline(pipeline, query, ctx, options);
  switch (engine) {
    case Engine::kFlink: {
      beam::FlinkRunner runner(
          beam::FlinkRunnerOptions{.parallelism = ctx.parallelism});
      return pipeline.run(runner).status();
    }
    case Engine::kSpark: {
      beam::SparkRunner runner(
          beam::SparkRunnerOptions{.parallelism = ctx.parallelism});
      return pipeline.run(runner).status();
    }
    case Engine::kApex: {
      beam::ApexRunner runner(
          beam::ApexRunnerOptions{.parallelism = ctx.parallelism});
      return pipeline.run(runner).status();
    }
  }
  return Status::internal("unknown engine");
}

}  // namespace dsps::queries
