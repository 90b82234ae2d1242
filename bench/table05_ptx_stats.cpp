// Paper Table V: static PTX instruction histogram of the FFT "forward"
// kernel, compiled through both front-ends from the same source AST.
#include <map>
#include <set>

#include "bench_kernels/kernels.h"
#include "bench_util.h"
#include "common/table.h"
#include "compiler/pipeline.h"
#include "ir/function.h"
#include "sim/decode.h"

int main(int argc, char** argv) {
  using namespace gpc;
  // No options of its own; rejects a misspelt GPC_* name and exits cleanly
  // on a library error like every other bench binary.
  (void)benchbin::parse_args(argc, argv);
  benchbin::heading(
      "Table V — PTX instruction statistics, FFT forward kernel");

  const auto def = bench::kernels::fft_forward();
  const auto cu = compiler::compile(def, arch::Toolchain::Cuda);
  const auto cl = compiler::compile(def, arch::Toolchain::OpenCl);
  const auto hc = ir::Histogram::of(cu.ptx);
  const auto ho = ir::Histogram::of(cl.ptx);

  const ir::InstrClass classes[] = {
      ir::InstrClass::Arithmetic, ir::InstrClass::LogicShift,
      ir::InstrClass::DataMovement, ir::InstrClass::FlowControl,
      ir::InstrClass::Synchronization};

  TextTable t({"Class", "Instruction", "CUDA", "OpenCL"});
  for (ir::InstrClass c : classes) {
    std::set<std::string> mnemonics;
    for (const auto& [m, n] : hc.mnemonics(c)) mnemonics.insert(m);
    for (const auto& [m, n] : ho.mnemonics(c)) mnemonics.insert(m);
    for (const std::string& m : mnemonics) {
      t.add_row({ir::to_string(c), m, std::to_string(hc.count(m)),
                 std::to_string(ho.count(m))});
    }
    t.add_row({ir::to_string(c), "SUB-TOTAL",
               std::to_string(hc.class_total(c)),
               std::to_string(ho.class_total(c))});
  }
  t.add_row({"Total", "", std::to_string(hc.total()),
             std::to_string(ho.total())});
  std::printf("%s", t.to_string().c_str());

  std::printf(
      "\nQualitative claims of the paper's Table V, checked against the\n"
      "histogram above (EXPERIMENTS.md discusses the deltas — e.g. the\n"
      "remaining CUDA div instructions are integer divisions, which the\n"
      "paper's kernel did not contain):\n");
  auto check = [](const char* what, bool ok) {
    std::printf("  [%s] %s\n", ok ? "ok" : "MISS", what);
  };
  check("OpenCL emits ~2x the arithmetic instructions of CUDA",
        ho.class_total(ir::InstrClass::Arithmetic) >=
            1.8 * hc.class_total(ir::InstrClass::Arithmetic));
  check("OpenCL emits substantially more logic/shift instructions",
        ho.class_total(ir::InstrClass::LogicShift) >=
            1.3 * hc.class_total(ir::InstrClass::LogicShift));
  check("OpenCL emits far more flow-control (setp/selp/bra)",
        ho.class_total(ir::InstrClass::FlowControl) >=
            3 * hc.class_total(ir::InstrClass::FlowControl));
  check("OpenCL expands sin/cos in software (no SFU instructions)",
        ho.count("sin") == 0 && ho.count("cos") == 0 &&
            hc.count("sin") > 0 && hc.count("cos") > 0);
  check("OpenCL loads literals from the constant bank (ld.const > 0)",
        ho.count("ld.const") > 0 && hc.count("ld.const") == 0);
  check("ld.global counts identical",
        hc.count("ld.global") == ho.count("ld.global"));
  check("st.global counts identical",
        hc.count("st.global") == ho.count("st.global"));
  check("ld.shared counts identical",
        hc.count("ld.shared") == ho.count("ld.shared"));
  check("st.shared counts identical",
        hc.count("st.shared") == ho.count("st.shared"));
  check("bar counts identical", hc.count("bar") == ho.count("bar"));
  check("CUDA lowers f32 division to rcp+mul (rcp > 0, fewer divs)",
        hc.count("rcp") > 0 && ho.count("rcp") == 0 &&
            hc.count("div") < ho.count("div"));

  // Superinstruction fusion census (Issue 7): how many of Table V's idioms
  // the decode pass recognises in each front-end's output. The OpenCL
  // front end re-expands address math per access (cvt/and/shl/add chains,
  // mul/add pairs) where CUDA emits mad directly, so the fusable share is
  // expected to be markedly higher on the OpenCL side.
  const auto dcu = sim::decode(cu.fn, /*fuse_idioms=*/true);
  const auto dcl = sim::decode(cl.fn, /*fuse_idioms=*/true);
  std::printf("\nFused superinstruction idioms recognised by the decoder\n");
  TextTable ft({"Pattern", "CUDA", "OpenCL"});
  for (int p = 0; p < sim::kNumFusedPatterns; ++p) {
    ft.add_row({sim::to_string(static_cast<sim::FusedPattern>(p)),
                std::to_string(dcu.fusion.groups[p]),
                std::to_string(dcl.fusion.groups[p])});
  }
  ft.add_row({"TOTAL GROUPS", std::to_string(dcu.fusion.total_groups()),
              std::to_string(dcl.fusion.total_groups())});
  ft.add_row({"micro-ops fused / total",
              std::to_string(dcu.fusion.fused_ops) + " / " +
                  std::to_string(dcu.fusion.total_ops),
              std::to_string(dcl.fusion.fused_ops) + " / " +
                  std::to_string(dcl.fusion.total_ops)});
  std::printf("%s", ft.to_string().c_str());
  check("fusion covers a larger share of the OpenCL program",
        static_cast<double>(dcl.fusion.fused_ops) * dcu.fusion.total_ops >=
            static_cast<double>(dcu.fusion.fused_ops) * dcl.fusion.total_ops);

  std::printf(
      "\nPaper context: the front-end difference (NVOPENCC's maturity —\n"
      "CSE, constant folding, SFU sin/cos — vs the 2010 OpenCL C compiler's\n"
      "software transcendentals and re-expanded address math) is §IV-B.4's\n"
      "explanation for FFT's performance gap, the largest in Fig. 3.\n");
  return 0;
}
