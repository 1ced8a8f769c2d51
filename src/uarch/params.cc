#include "uarch/params.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace helios
{

const char *
fusionModeName(FusionMode mode)
{
    switch (mode) {
      case FusionMode::None: return "NoFusion";
      case FusionMode::RiscvFusion: return "RISCVFusion";
      case FusionMode::CsfSbr: return "CSF-SBR";
      case FusionMode::RiscvFusionPP: return "RISCVFusion++";
      case FusionMode::Helios: return "Helios";
      case FusionMode::Oracle: return "OracleFusion";
    }
    return "?";
}

FusionMode
fusionModeFromName(const std::string &name)
{
    for (FusionMode mode :
         {FusionMode::None, FusionMode::RiscvFusion, FusionMode::CsfSbr,
          FusionMode::RiscvFusionPP, FusionMode::Helios,
          FusionMode::Oracle}) {
        if (name == fusionModeName(mode))
            return mode;
    }
    fatal("unknown fusion mode '%s'", name.c_str());
}

uint64_t
configHash(const CoreParams &p)
{
    // `name=value;` pairs in a fixed order: adding a field appends to
    // the text (old digests change only when a *listed* field moves),
    // and renaming/reordering struct members cannot silently alias
    // two different configurations.
    std::string canon;
    canon.reserve(768);
    const auto field = [&canon](const char *name, uint64_t value) {
        canon += name;
        canon += '=';
        canon += std::to_string(value);
        canon += ';';
    };
    field("fetch_width", p.fetchWidth);
    field("rename_width", p.renameWidth);
    field("dispatch_width", p.dispatchWidth);
    field("commit_width", p.commitWidth);
    field("aq_size", p.aqSize);
    field("rob_size", p.robSize);
    field("iq_size", p.iqSize);
    field("lq_size", p.lqSize);
    field("sq_size", p.sqSize);
    field("frontend_depth", p.frontendDepth);
    field("mispredict_penalty", p.mispredictPenalty);
    field("alu_ports", p.aluPorts);
    field("mul_ports", p.mulPorts);
    field("div_ports", p.divPorts);
    field("load_ports", p.loadPorts);
    field("store_ports", p.storePorts);
    field("branch_ports", p.branchPorts);
    field("alu_latency", p.aluLatency);
    field("mul_latency", p.mulLatency);
    field("div_latency", p.divLatency);
    field("l1_latency", p.l1Latency);
    field("l2_latency", p.l2Latency);
    field("l3_latency", p.l3Latency);
    field("mem_latency", p.memLatency);
    field("forward_latency", p.forwardLatency);
    field("line_cross_penalty", p.lineCrossPenalty);
    field("l1i_bytes", p.l1iBytes);
    field("l1i_ways", p.l1iWays);
    field("l1d_bytes", p.l1dBytes);
    field("l1d_ways", p.l1dWays);
    field("l2_bytes", p.l2Bytes);
    field("l2_ways", p.l2Ways);
    field("l3_bytes", p.l3Bytes);
    field("l3_ways", p.l3Ways);
    field("line_bytes", p.lineBytes);
    canon += "fusion=";
    canon += fusionModeName(p.fusion);
    canon += ';';
    field("fusion_region_bytes", p.fusionRegionBytes);
    field("max_fusion_distance", p.maxFusionDistance);
    field("ncsf_nest_depth", p.ncsfNestDepth);
    return fnv1a(canon.data(), canon.size());
}

} // namespace helios
