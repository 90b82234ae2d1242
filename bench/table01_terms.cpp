// Paper Table I: the CUDA <-> OpenCL terminology map.
#include "bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  // No options of its own; rejects a misspelt GPC_* name and exits cleanly
  // on a library error like every other bench binary.
  (void)gpc::benchbin::parse_args(argc, argv);
  gpc::benchbin::heading(
      "Table I — A comparison of general terms (CUDA vs OpenCL)");
  gpc::TextTable t({"CUDA terminology", "OpenCL terminology"});
  t.add_row({"Global Memory", "Global Memory"});
  t.add_row({"Constant Memory", "Constant Memory"});
  t.add_row({"Shared Memory", "Local Memory"});
  t.add_row({"Local Memory (registers spill)", "Private Memory"});
  t.add_row({"Thread", "Work-item"});
  t.add_row({"Thread Block", "Work-group"});
  t.add_row({"GridDim (number of blocks)", "NDRange (number of work-items)"});
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nNote: the GridDim/NDRange row is the programming-model difference\n"
      "the paper calls out in §IV-B.1: CUDA counts blocks, OpenCL counts\n"
      "work-items. gpc::ocl::CommandQueue::enqueue_nd_range takes global\n"
      "work-item counts while gpc::cuda::Context::launch takes a grid of\n"
      "blocks, mirroring this.\n");
  return 0;
}
