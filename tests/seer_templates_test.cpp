#include "seer/templates.h"

#include <gtest/gtest.h>

#include <set>

#include "seer/configs.h"

namespace astral::seer {
namespace {

parallel::ParallelismConfig cfg(int tp, int dp, int pp, int ep = 1) {
  return parallel::ParallelismConfig{.tp = tp, .dp = dp, .pp = pp, .ep = ep};
}

TEST(Templates, DenseTrainGraphValidates) {
  auto g = build_graph(ModelSpec::llama3_70b(), cfg(8, 4, 2), WorkloadShape{});
  EXPECT_TRUE(g.validate());
  EXPECT_GT(g.ops.size(), 100u);
}

TEST(Templates, Table1OperatorInventoryForLlama3) {
  // Table 1 of the paper: the LLaMA-3 operator list in Seer.
  WorkloadShape shape;
  shape.phase = Phase::Prefill;  // forward ops only, as the table lists
  auto g = build_graph(ModelSpec::llama3_70b(), cfg(8, 1, 4), shape);
  std::set<std::string> names;
  for (const auto& op : g.ops) names.insert(op.name);
  for (const char* expected :
       {"LoadWeight", "EmbeddingComputation", "PPRecv", "RMSNormLoadWeight",
        "RMSNormComputation", "GQAQKVLoadWeight", "GQAQKVComputation", "GQACoreAttn",
        "GQAAttnProjLoadWeight", "GQAAttnProjComputation", "AttnTPAllReduce",
        "SwiMLPUpProj", "SwiMLPGateProj", "SwiMLPDownProj", "MLPTPAllReduce", "PPSend"}) {
    EXPECT_TRUE(names.contains(expected)) << "missing " << expected;
  }
}

TEST(Templates, InventoryTypesMatchTable1) {
  WorkloadShape shape;
  shape.phase = Phase::Prefill;
  auto g = build_graph(ModelSpec::llama3_70b(), cfg(8, 1, 4), shape);
  auto inv = op_inventory(g);
  auto type_of = [&](const std::string& name) -> std::string {
    for (const auto& row : inv) {
      if (row.name == name) return row.type;
    }
    return "absent";
  };
  EXPECT_EQ(type_of("LoadWeight"), "Mem.");
  EXPECT_EQ(type_of("EmbeddingComputation"), "Comp.");
  EXPECT_EQ(type_of("PPRecv"), "Comm.");
  EXPECT_EQ(type_of("RMSNormLoadWeight"), "Mem.");
  EXPECT_EQ(type_of("GQACoreAttn"), "Comp.");
  EXPECT_EQ(type_of("AttnTPAllReduce"), "Comm.");
  EXPECT_EQ(type_of("SwiMLPUpProj"), "Mem. + Comp.");
  EXPECT_EQ(type_of("SwiMLPGateProj"), "Mem. + Comp.");
  EXPECT_EQ(type_of("SwiMLPDownProj"), "Mem. + Comp.");
}

TEST(Templates, NoTpMeansNoTpCollectives) {
  auto g = build_graph(ModelSpec::tiny(), cfg(1, 1, 1), WorkloadShape{});
  for (const auto& op : g.ops) {
    EXPECT_EQ(op.name.find("TPAllReduce"), std::string::npos) << op.name;
  }
}

TEST(Templates, NoPpMeansNoPpOps) {
  auto g = build_graph(ModelSpec::tiny(), cfg(2, 2, 1), WorkloadShape{});
  for (const auto& op : g.ops) {
    EXPECT_NE(op.name.substr(0, 2), "PP") << op.name;
  }
}

TEST(Templates, TrainingAddsBackwardAndDpSync) {
  auto fwd_only = [&] {
    WorkloadShape s;
    s.phase = Phase::Prefill;
    return build_graph(ModelSpec::tiny(), cfg(2, 4, 1), s);
  }();
  auto train = build_graph(ModelSpec::tiny(), cfg(2, 4, 1), WorkloadShape{});
  EXPECT_GT(train.ops.size(), fwd_only.ops.size());
  int dp_ops = 0;
  for (const auto& op : train.ops) {
    if (op.name.rfind("DPGradAllReduce", 0) == 0) ++dp_ops;
  }
  EXPECT_EQ(dp_ops, WorkloadShape{}.dp_buckets);
}

TEST(Templates, DpSyncBytesMatchShardSize) {
  auto model = ModelSpec::tiny();
  auto c = cfg(2, 4, 2);
  auto g = build_graph(model, c, WorkloadShape{});
  double dp_bytes = 0;
  for (const auto& op : g.ops) {
    if (op.name.rfind("DPGradAllReduce", 0) == 0) dp_bytes += op.comm_bytes;
  }
  double expected = model.params() / (c.tp * c.pp) * model.param_bytes;
  EXPECT_NEAR(dp_bytes, expected, expected * 1e-9);
}

TEST(Templates, MoeUsesAllToAllInsteadOfDenseMlp) {
  auto g = build_graph(ModelSpec::hunyuan_moe(), cfg(4, 8, 2, 8), WorkloadShape{});
  std::set<std::string> names;
  for (const auto& op : g.ops) names.insert(op.name);
  EXPECT_TRUE(names.contains("MoEDispatchAllToAll"));
  EXPECT_TRUE(names.contains("MoECombineAllToAll"));
  EXPECT_TRUE(names.contains("ExpertUpProj"));
  EXPECT_FALSE(names.contains("SwiMLPUpProj"));
  // EP group size propagated.
  for (const auto& op : g.ops) {
    if (op.name == "MoEDispatchAllToAll") {
      EXPECT_EQ(op.comm_group, 8);
    }
  }
}

TEST(Templates, Zero3AddsWeightGathersAndReduceScatter) {
  WorkloadShape shape;
  shape.dp_strategy = DpStrategy::Zero3;
  auto g = build_graph(ModelSpec::tiny(), cfg(2, 4, 1), shape);
  int gathers = 0;
  int rs = 0;
  for (const auto& op : g.ops) {
    if (op.name.rfind("ZeroWeightAllGather", 0) == 0) ++gathers;
    if (op.name.rfind("DPGradReduceScatter", 0) == 0) ++rs;
  }
  EXPECT_GT(gathers, 0);
  EXPECT_EQ(rs, shape.dp_buckets);
  // ZeRO-3 moves strictly more bytes than plain DP.
  auto plain = build_graph(ModelSpec::tiny(), cfg(2, 4, 1), WorkloadShape{});
  EXPECT_GT(g.total_comm_bytes(), plain.total_comm_bytes() * 2);
}

TEST(Templates, CrossDcFlagsOnlyTheChosenDimension) {
  WorkloadShape pp_dc;
  pp_dc.cross_dc = CrossDcDim::PP;
  auto g = build_graph(ModelSpec::tiny(), cfg(2, 2, 2), pp_dc);
  for (const auto& op : g.ops) {
    if (op.cross_dc) {
      EXPECT_EQ(op.name.substr(0, 2), "PP") << op.name;
    }
  }
  WorkloadShape dp_dc;
  dp_dc.cross_dc = CrossDcDim::DP;
  auto g2 = build_graph(ModelSpec::tiny(), cfg(2, 2, 2), dp_dc);
  bool any = false;
  for (const auto& op : g2.ops) {
    if (op.cross_dc) {
      any = true;
      EXPECT_NE(op.name.rfind("DPGrad", 0), std::string::npos);
    }
  }
  EXPECT_TRUE(any);
}

TEST(Templates, DecodeIsMemoryBoundInAttention) {
  WorkloadShape shape;
  shape.phase = Phase::Decode;
  shape.micro_batch = 16;
  shape.ctx_len = 8192;
  auto g = build_graph(ModelSpec::llama3_70b(), cfg(8, 1, 1), shape);
  for (const auto& op : g.ops) {
    if (op.name == "GQACoreAttn") {
      // KV-cache read bytes dwarf the per-token flops time on any GPU.
      EXPECT_GT(op.mem_bytes, 0.0);
      EXPECT_GT(op.mem_bytes / GpuSpec::h100().hbm_bw,
                op.flops / GpuSpec::h100().flops);
    }
  }
}

TEST(Templates, LayersDividedAcrossPipelineStages) {
  auto model = ModelSpec::llama3_70b();  // 80 layers
  auto g1 = build_graph(model, cfg(8, 1, 1), WorkloadShape{});
  auto g8 = build_graph(model, cfg(8, 1, 8), WorkloadShape{});
  auto count_attn = [](const OpGraph& g) {
    int n = 0;
    for (const auto& op : g.ops) n += op.name == "GQACoreAttn" ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count_attn(g1), 80);
  EXPECT_EQ(count_attn(g8), 10);
}

TEST(Templates, ModelSpecSanity) {
  // Parameter counts should land near the published sizes.
  EXPECT_NEAR(ModelSpec::gpt3_175b().params(), 175e9, 15e9);
  EXPECT_NEAR(ModelSpec::llama3_70b().params(), 70e9, 8e9);
  EXPECT_NEAR(ModelSpec::llama3_405b().params(), 405e9, 40e9);
  EXPECT_GT(ModelSpec::hunyuan_moe().params(), 3e11);  // MoE total
  EXPECT_LT(ModelSpec::hunyuan_moe().active_params(),
            ModelSpec::hunyuan_moe().params() / 3);
}

}  // namespace
}  // namespace astral::seer
