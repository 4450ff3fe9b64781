// Golden fitness histories: the exact output of every method x execution x
// storage cell of parpp::solve() on small seeded problems, pinned as hex
// doubles. Any change to a driver core that moves a single bit of a
// history, a phase label or a sweep counter fails here, so refactors of the
// sweep loops must prove they are behavior-preserving.
//
// The sequential cells run with one OpenMP thread (the Gram and MTTKRP
// reductions combine per-thread partials, so their rounding depends on the
// team size); the simulated ranks already run one thread each.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

using solver::Method;

struct Cell {
  Method method;
  bool parallel;
  bool sparse;
};

std::string cell_name(const Cell& c) {
  std::string m(solver::to_string(c.method));
  for (char& ch : m)
    if (ch == '-') ch = '_';
  return m + (c.parallel ? "_par4" : "_seq") +
         (c.sparse ? "_sparse" : "_dense");
}

void PrintTo(const Cell& c, std::ostream* os) { *os << cell_name(c); }

/// Rank-3 planted tensor plus 5% uniform noise: no method reaches fitness
/// 1, so every cell runs its full sweep budget and the PP cells enter
/// several PP phases.
const tensor::DenseTensor& golden_dense() {
  static const tensor::DenseTensor t = [] {
    tensor::DenseTensor x = test::low_rank_tensor({9, 8, 7, 6}, 3, 1501);
    x.axpy(0.05, test::random_tensor({9, 8, 7, 6}, 1502));
    return x;
  }();
  return t;
}

/// Skewed, exactly rank-3 sparse tensor (nnz-balanced partition in the
/// parallel cells).
const tensor::CsfTensor& golden_sparse() {
  static const tensor::CsfTensor t(
      data::make_sparse_powerlaw({24, 20, 18}, 0.08, 1.0, 1503, 3).tensor);
  return t;
}

solver::SolverSpec golden_spec(const Cell& c) {
  solver::SolverSpec spec;
  spec.method = c.method;
  spec.rank = 4;
  spec.seed = 11;
  spec.stopping.max_sweeps = 24;
  spec.stopping.fitness_tol = 1e-9;
  spec.pp.pp_tol = 0.3;
  spec.engine = c.sparse ? core::EngineKind::kSparse : core::EngineKind::kMsdt;
  if (c.parallel) {
    spec.execution = solver::Execution::simulated_parallel(4);
    spec.execution.partition = dist::PartitionKind::kBalancedNnz;
  }
  return spec;
}

/// One recorded cell, as text so hex doubles stay exact: `summary` is
/// "sweeps num_als_sweeps num_pp_init num_pp_approx status fitness" and
/// `history` one "phase fitness" pair per recorded sweep.
struct Golden {
  const char* cell;
  const char* summary;
  const char* history;
};

std::vector<std::string> tokens(const char* text) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

double hex_double(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

// Recorded from the drivers before they were folded into the four
// problem-typed cores; regenerate only for an intended numerical change.
// One cell is pinned to 1e-12 instead of bit for bit, see history_tol.
const std::vector<Golden>& golden_table() {
  static const std::vector<Golden> table{
      {"als_seq_dense", "24 24 0 0 ok 0x1.e7ec83344ff7dp-1",
       "als 0x1.7295b49c1c9a6p-1 "
       "als 0x1.c10725a3f36e6p-1 "
       "als 0x1.debbc1394c052p-1 "
       "als 0x1.e524240e5dd39p-1 "
       "als 0x1.e60d6110f96bp-1 "
       "als 0x1.e65f78a8c4d58p-1 "
       "als 0x1.e68d448f8c4aep-1 "
       "als 0x1.e6ac3b9b71df6p-1 "
       "als 0x1.e6c373d010841p-1 "
       "als 0x1.e6d5c7612ab4cp-1 "
       "als 0x1.e6e4970e7a3b9p-1 "
       "als 0x1.e6f0b4d322bc8p-1 "
       "als 0x1.e6fab9df4012ap-1 "
       "als 0x1.e7032e24195dfp-1 "
       "als 0x1.e70aafd7da7fap-1 "
       "als 0x1.e7124bd2f1c62p-1 "
       "als 0x1.e71c74e466a4cp-1 "
       "als 0x1.e72f29d9e5676p-1 "
       "als 0x1.e7544b5e4fefap-1 "
       "als 0x1.e78d5943b2219p-1 "
       "als 0x1.e7c23b8591948p-1 "
       "als 0x1.e7dc5e3cf4841p-1 "
       "als 0x1.e7e6992da4071p-1 "
       "als 0x1.e7ec83344ff7dp-1"},
      {"als_seq_sparse", "24 24 0 0 ok 0x1.fffff907340a7p-1",
       "als 0x1.11f119a5edf2p-1 "
       "als 0x1.80503b2732d28p-1 "
       "als 0x1.b1139ea6b7f7ep-1 "
       "als 0x1.d50f84d639e36p-1 "
       "als 0x1.ec85bd1e77e4dp-1 "
       "als 0x1.f800c7a79aa09p-1 "
       "als 0x1.fccaf9ec67bc4p-1 "
       "als 0x1.feb12b25c9f4fp-1 "
       "als 0x1.ff704d501bbf4p-1 "
       "als 0x1.ffbd2fd534bfdp-1 "
       "als 0x1.ffde2561c45cep-1 "
       "als 0x1.ffedaca049c74p-1 "
       "als 0x1.fff5aeb5a96a4p-1 "
       "als 0x1.fffa1305d5d0fp-1 "
       "als 0x1.fffc909cc4c7bp-1 "
       "als 0x1.fffe00137c156p-1 "
       "als 0x1.fffed56d4e089p-1 "
       "als 0x1.ffff51b6502bep-1 "
       "als 0x1.ffff9a3932eeap-1 "
       "als 0x1.ffffc48d7ef6ep-1 "
       "als 0x1.ffffdd4724e19p-1 "
       "als 0x1.ffffebba269cfp-1 "
       "als 0x1.fffff42908ce4p-1 "
       "als 0x1.fffff907340a7p-1"},
      {"als_par4_dense", "24 24 0 0 ok 0x1.e7ec83344ff7dp-1",
       "als 0x1.7295b49c1c99ap-1 "
       "als 0x1.c10725a3f36c9p-1 "
       "als 0x1.debbc1394c036p-1 "
       "als 0x1.e524240e5dcd4p-1 "
       "als 0x1.e60d6110f966ap-1 "
       "als 0x1.e65f78a8c4d34p-1 "
       "als 0x1.e68d448f8c48bp-1 "
       "als 0x1.e6ac3b9b71dafp-1 "
       "als 0x1.e6c373d0107d5p-1 "
       "als 0x1.e6d5c7612ab04p-1 "
       "als 0x1.e6e4970e7a34cp-1 "
       "als 0x1.e6f0b4d322bc8p-1 "
       "als 0x1.e6fab9df400e1p-1 "
       "als 0x1.e7032e24195bbp-1 "
       "als 0x1.e70aafd7da7d5p-1 "
       "als 0x1.e7124bd2f1bf4p-1 "
       "als 0x1.e71c74e466a4cp-1 "
       "als 0x1.e72f29d9e5677p-1 "
       "als 0x1.e7544b5e4febp-1 "
       "als 0x1.e78d5943b21cep-1 "
       "als 0x1.e7c23b85918d7p-1 "
       "als 0x1.e7dc5e3cf481bp-1 "
       "als 0x1.e7e6992da4071p-1 "
       "als 0x1.e7ec83344ff7dp-1"},
      {"als_par4_sparse", "24 24 0 0 ok 0x1.fffff91735f3fp-1",
       "als 0x1.11f119a5edf1cp-1 "
       "als 0x1.80503b2732d28p-1 "
       "als 0x1.b1139ea6b7fap-1 "
       "als 0x1.d50f84d639e5fp-1 "
       "als 0x1.ec85bd1e77e7ap-1 "
       "als 0x1.f800c7a79ab56p-1 "
       "als 0x1.fccaf9ec6799ap-1 "
       "als 0x1.feb12b25c9ca7p-1 "
       "als 0x1.ff704d501bbf4p-1 "
       "als 0x1.ffbd2fd533162p-1 "
       "als 0x1.ffde2561c2b8dp-1 "
       "als 0x1.ffedaca049c74p-1 "
       "als 0x1.fff5aeb5b42eep-1 "
       "als 0x1.fffa1305d5d0fp-1 "
       "als 0x1.fffc909cd4f39p-1 "
       "als 0x1.fffe0013604ddp-1 "
       "als 0x1.fffed56d4e089p-1 "
       "als 0x1.ffff51b5fe93bp-1 "
       "als 0x1.ffff9a3932eeap-1 "
       "als 0x1.ffffc48d7ef6ep-1 "
       "als 0x1.ffffdd458b5a3p-1 "
       "als 0x1.ffffebb4ac651p-1 "
       "als 0x1.fffff424589bbp-1 "
       "als 0x1.fffff91735f3fp-1"},
      {"pp_seq_dense", "24 8 4 12 ok 0x1.d406ff7e0fadep-1",
       "als 0x1.7295b49c1c9a6p-1 "
       "als 0x1.c10725a3f36e6p-1 "
       "als 0x1.debbc1394c052p-1 "
       "pp-init 0x1.debbc1394c052p-1 "
       "pp-approx 0x1.e55b83e857cfep-1 "
       "pp-approx 0x1.e70ba7cd5394ep-1 "
       "pp-approx 0x1.e808eba1c5c3cp-1 "
       "pp-approx 0x1.e9f1acb67fa24p-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "als 0x1.794ee8edbdee6p-1 "
       "als 0x1.a81f38c523b14p-1 "
       "als 0x1.b329863f11c16p-1 "
       "pp-init 0x1.b329863f11c16p-1 "
       "pp-approx 0x1.b9e82fa2db52ep-1 "
       "pp-approx 0x1.bf72a57ab2a96p-1 "
       "als 0x1.c69086b0ea0fp-1 "
       "pp-init 0x1.c69086b0ea0fp-1 "
       "pp-approx 0x1.ca7202be342aep-1 "
       "pp-approx 0x1.cd468afac3912p-1 "
       "pp-approx 0x1.cf293c7052a0dp-1 "
       "als 0x1.d246032c2e574p-1 "
       "pp-init 0x1.d246032c2e574p-1 "
       "pp-approx 0x1.d3f8b66d0d467p-1"},
      {"pp_seq_sparse", "24 4 2 18 ok 0x1.ffffe983b59c6p-1",
       "als 0x1.11f119a5edf2p-1 "
       "als 0x1.80503b2732d28p-1 "
       "als 0x1.b1139ea6b7f7ep-1 "
       "pp-init 0x1.b1139ea6b7f7ep-1 "
       "pp-approx 0x1.d651ac4684cf4p-1 "
       "pp-approx 0x1.f06b9918b02e7p-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "als 0x1.feb65ac5fe39ap-1 "
       "pp-init 0x1.feb65ac5fe39ap-1 "
       "pp-approx 0x1.ff6e29e1f0e1p-1 "
       "pp-approx 0x1.ffba1d8366079p-1 "
       "pp-approx 0x1.ffdbadb5c579ap-1 "
       "pp-approx 0x1.ffebfe867f68ap-1 "
       "pp-approx 0x1.fff4991de4146p-1 "
       "pp-approx 0x1.fff9600d0788bp-1 "
       "pp-approx 0x1.fffc19936a91bp-1 "
       "pp-approx 0x1.fffdaca4b5b0ep-1 "
       "pp-approx 0x1.fffe972760309p-1 "
       "pp-approx 0x1.ffff2059fee84p-1 "
       "pp-approx 0x1.ffff7141f2ef3p-1 "
       "pp-approx 0x1.ffffa1adf35c1p-1 "
       "pp-approx 0x1.ffffbf6112024p-1 "
       "pp-approx 0x1.ffffd24372289p-1"},
      {"pp_par4_dense", "24 8 4 12 ok 0x1.d406ff7e1057ap-1",
       "als 0x1.7295b49c1c99ap-1 "
       "als 0x1.c10725a3f36c9p-1 "
       "als 0x1.debbc1394c036p-1 "
       "pp-init 0x1.debbc1394c036p-1 "
       "pp-approx 0x1.e55b83e857cbap-1 "
       "pp-approx 0x1.e70ba7cd53905p-1 "
       "pp-approx 0x1.e808eba1c5c17p-1 "
       "pp-approx 0x1.e9f1acb67f9fbp-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "als 0x1.794ee8edbe444p-1 "
       "als 0x1.a81f38c5242d2p-1 "
       "als 0x1.b329863f12339p-1 "
       "pp-init 0x1.b329863f12339p-1 "
       "pp-approx 0x1.b9e82fa2dbf71p-1 "
       "pp-approx 0x1.bf72a57ab3828p-1 "
       "als 0x1.c69086b0eac29p-1 "
       "pp-init 0x1.c69086b0eac29p-1 "
       "pp-approx 0x1.ca7202be34debp-1 "
       "pp-approx 0x1.cd468afac444dp-1 "
       "pp-approx 0x1.cf293c705350fp-1 "
       "als 0x1.d246032c2f05bp-1 "
       "pp-init 0x1.d246032c2f05bp-1 "
       "pp-approx 0x1.d3f8b66d0deeap-1"},
      {"pp_par4_sparse", "24 4 2 18 ok 0x1.ffffe9813d4bcp-1",
       "als 0x1.11f119a5edf1cp-1 "
       "als 0x1.80503b2732d28p-1 "
       "als 0x1.b1139ea6b7fap-1 "
       "pp-init 0x1.b1139ea6b7fap-1 "
       "pp-approx 0x1.d651ac4684d09p-1 "
       "pp-approx 0x1.f06b9918b0274p-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "als 0x1.feb65ac5fe39ap-1 "
       "pp-init 0x1.feb65ac5fe39ap-1 "
       "pp-approx 0x1.ff6e29e1f1429p-1 "
       "pp-approx 0x1.ffba1d83679e8p-1 "
       "pp-approx 0x1.ffdbadb5c3f22p-1 "
       "pp-approx 0x1.ffebfe868d4aep-1 "
       "pp-approx 0x1.fff4991ddf352p-1 "
       "pp-approx 0x1.fff9600d0788bp-1 "
       "pp-approx 0x1.fffc19936a91bp-1 "
       "pp-approx 0x1.fffdaca4cd93ep-1 "
       "pp-approx 0x1.fffe9727d66bap-1 "
       "pp-approx 0x1.ffff205940264p-1 "
       "pp-approx 0x1.ffff71418f4edp-1 "
       "pp-approx 0x1.ffffa1ad5c96ap-1 "
       "pp-approx 0x1.ffffbf62ca2bp-1 "
       "pp-approx 0x1.ffffd24372289p-1"},
      {"nncp_seq_dense", "24 24 0 0 ok 0x1.e750a20ca03ecp-1",
       "nncp 0x1.45ae158ba22f4p-1 "
       "nncp 0x1.8875459b03165p-1 "
       "nncp 0x1.c2beece6da345p-1 "
       "nncp 0x1.d7160e8b7e8dp-1 "
       "nncp 0x1.de3a4fb627a92p-1 "
       "nncp 0x1.e184911c4ecebp-1 "
       "nncp 0x1.e3359e94e6a03p-1 "
       "nncp 0x1.e42f1b99f3367p-1 "
       "nncp 0x1.e4cf94e8cab4cp-1 "
       "nncp 0x1.e540cbb34a986p-1 "
       "nncp 0x1.e5964276bf3ap-1 "
       "nncp 0x1.e5da14dfcf18ap-1 "
       "nncp 0x1.e611f0aeb2eb9p-1 "
       "nncp 0x1.e64143d9bd946p-1 "
       "nncp 0x1.e66a423aaa8fp-1 "
       "nncp 0x1.e68e69ff9d03ep-1 "
       "nncp 0x1.e6aec6463bfd6p-1 "
       "nncp 0x1.e6cc15b9f9bafp-1 "
       "nncp 0x1.e6e6e276f4b24p-1 "
       "nncp 0x1.e6ff91684d5b8p-1 "
       "nncp 0x1.e7165f5ab112cp-1 "
       "nncp 0x1.e72b4c69e2b92p-1 "
       "nncp 0x1.e73eaca7eeafdp-1 "
       "nncp 0x1.e750a20ca03ecp-1"},
      {"nncp_seq_sparse", "24 24 0 0 ok 0x1.fffffc73ce45fp-1",
       "nncp 0x1.11fc1e00569f4p-2 "
       "nncp 0x1.bc27fa6b5514cp-2 "
       "nncp 0x1.53bc59d478808p-1 "
       "nncp 0x1.ecff94f876c0dp-1 "
       "nncp 0x1.fa43c863f21ep-1 "
       "nncp 0x1.fd15663ec42efp-1 "
       "nncp 0x1.fe7c4b5c020b5p-1 "
       "nncp 0x1.ff3336659e038p-1 "
       "nncp 0x1.ff92a4e1ebbc5p-1 "
       "nncp 0x1.ffc514bebf34fp-1 "
       "nncp 0x1.ffdffdc935b36p-1 "
       "nncp 0x1.ffee8545c5133p-1 "
       "nncp 0x1.fff66b8c8b522p-1 "
       "nncp 0x1.fffabc89e5ffdp-1 "
       "nncp 0x1.fffd1a68914ffp-1 "
       "nncp 0x1.fffe6764b511cp-1 "
       "nncp 0x1.ffff1eb19713fp-1 "
       "nncp 0x1.ffff83b41cafap-1 "
       "nncp 0x1.ffffbb686877cp-1 "
       "nncp 0x1.ffffda2501c8ep-1 "
       "nncp 0x1.ffffeb184436cp-1 "
       "nncp 0x1.fffff479dfed5p-1 "
       "nncp 0x1.fffff99ce7059p-1 "
       "nncp 0x1.fffffc73ce45fp-1"},
      {"nncp_par4_dense", "24 24 0 0 ok 0x1.e750a20ca03c8p-1",
       "nncp 0x1.45ae158ba22fp-1 "
       "nncp 0x1.8875459b0315ep-1 "
       "nncp 0x1.c2beece6da318p-1 "
       "nncp 0x1.d7160e8b7e8b9p-1 "
       "nncp 0x1.de3a4fb627a92p-1 "
       "nncp 0x1.e184911c4eccep-1 "
       "nncp 0x1.e3359e94e69c4p-1 "
       "nncp 0x1.e42f1b99f3388p-1 "
       "nncp 0x1.e4cf94e8cab09p-1 "
       "nncp 0x1.e540cbb34a941p-1 "
       "nncp 0x1.e5964276bf37dp-1 "
       "nncp 0x1.e5da14dfcf1acp-1 "
       "nncp 0x1.e611f0aeb2e96p-1 "
       "nncp 0x1.e64143d9bd8dcp-1 "
       "nncp 0x1.e66a423aaa8ccp-1 "
       "nncp 0x1.e68e69ff9d01bp-1 "
       "nncp 0x1.e6aec6463bfb2p-1 "
       "nncp 0x1.e6cc15b9f9bafp-1 "
       "nncp 0x1.e6e6e276f4bp-1 "
       "nncp 0x1.e6ff91684d593p-1 "
       "nncp 0x1.e7165f5ab10bfp-1 "
       "nncp 0x1.e72b4c69e2b92p-1 "
       "nncp 0x1.e73eaca7eea8fp-1 "
       "nncp 0x1.e750a20ca03c8p-1"},
      {"nncp_par4_sparse", "24 24 0 0 ok 0x1.fffffc6447aa5p-1",
       "nncp 0x1.11fc1e00569f4p-2 "
       "nncp 0x1.bc27fa6b5514ap-2 "
       "nncp 0x1.53bc59d47880cp-1 "
       "nncp 0x1.ecff94f876c6ap-1 "
       "nncp 0x1.fa43c863f227bp-1 "
       "nncp 0x1.fd15663ec442p-1 "
       "nncp 0x1.fe7c4b5c023p-1 "
       "nncp 0x1.ff3336659e8e6p-1 "
       "nncp 0x1.ff92a4e1eb3a4p-1 "
       "nncp 0x1.ffc514bebe439p-1 "
       "nncp 0x1.ffdffdc935b36p-1 "
       "nncp 0x1.ffee8545c840dp-1 "
       "nncp 0x1.fff66b8c911e9p-1 "
       "nncp 0x1.fffabc89fb1b6p-1 "
       "nncp 0x1.fffd1a68914ffp-1 "
       "nncp 0x1.fffe6764d7df8p-1 "
       "nncp 0x1.ffff1eb1d6324p-1 "
       "nncp 0x1.ffff83b41cafap-1 "
       "nncp 0x1.ffffbb66c9d56p-1 "
       "nncp 0x1.ffffda2212915p-1 "
       "nncp 0x1.ffffeb184436cp-1 "
       "nncp 0x1.fffff4750ee4ep-1 "
       "nncp 0x1.fffff99ce7059p-1 "
       "nncp 0x1.fffffc6447aa5p-1"},
      {"pp_nncp_seq_dense", "24 3 2 19 ok 0x1.e72aa9f565c24p-1",
       "nncp 0x1.45ae158ba22f4p-1 "
       "nncp 0x1.8875459b03165p-1 "
       "pp-init 0x1.8875459b03165p-1 "
       "pp-approx 0x1.ba0ec02512c5cp-1 "
       "pp-approx 0x1.cd511cae45d38p-1 "
       "pp-approx 0x1.d6373b9845338p-1 "
       "pp-approx 0x1.dbc6bc374e2c9p-1 "
       "pp-approx 0x1.dfb0d393f3c64p-1 "
       "pp-approx 0x1.e2e34c59539abp-1 "
       "nncp 0x1.e45dde6908ec8p-1 "
       "pp-init 0x1.e45dde6908ec8p-1 "
       "pp-approx 0x1.e4ec01bece741p-1 "
       "pp-approx 0x1.e54ff7f11c545p-1 "
       "pp-approx 0x1.e59983c85aa84p-1 "
       "pp-approx 0x1.e5cfd690e0d7ap-1 "
       "pp-approx 0x1.e5f73725fe776p-1 "
       "pp-approx 0x1.e6124c850889ep-1 "
       "pp-approx 0x1.e622c6d4542e3p-1 "
       "pp-approx 0x1.e629b04ba0152p-1 "
       "pp-approx 0x1.e62793b344f39p-1 "
       "pp-approx 0x1.e61c8b4bb90f5p-1 "
       "pp-approx 0x1.e6083e6b818bcp-1 "
       "pp-approx 0x1.e5e9e42509409p-1 "
       "pp-approx 0x1.e5c06ffc4ec64p-1"},
      {"pp_nncp_seq_sparse", "24 6 2 16 ok 0x1.fffff479dfed5p-1",
       "nncp 0x1.11fc1e00569f4p-2 "
       "nncp 0x1.bc27fa6b5514cp-2 "
       "nncp 0x1.53bc59d478808p-1 "
       "nncp 0x1.ecff94f876c0dp-1 "
       "nncp 0x1.fa43c863f21ep-1 "
       "pp-init 0x1.fa43c863f21ep-1 "
       "pp-approx 0x1.fd16e0c8349fap-1 "
       "pp-approx 0x1.fe7f59a9eb3cbp-1 "
       "pp-approx 0x1.ff36e5b5c60dbp-1 "
       "pp-approx 0x1.ff96883b284f9p-1 "
       "pp-approx 0x1.ffc8ff6a8f206p-1 "
       "pp-approx 0x1.ffe3ec5577613p-1 "
       "pp-approx 0x1.fff28e47e2067p-1 "
       "pp-approx 0x1.fffaede78d86ap-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "nncp 0x1.fffe6792ce16ap-1 "
       "pp-init 0x1.fffe6792ce16ap-1 "
       "pp-approx 0x1.ffff1ecb3cdabp-1 "
       "pp-approx 0x1.ffff83c2dd26ap-1 "
       "pp-approx 0x1.ffffbb7151a3ap-1 "
       "pp-approx 0x1.ffffda26797a8p-1 "
       "pp-approx 0x1.ffffeb184436cp-1 "
       "pp-approx 0x1.fffff479dfed5p-1"},
      {"pp_nncp_par4_dense", "24 3 2 19 ok 0x1.e72aa9f565bb6p-1",
       "nncp 0x1.45ae158ba22fp-1 "
       "nncp 0x1.8875459b0315ep-1 "
       "pp-init 0x1.8875459b0315ep-1 "
       "pp-approx 0x1.ba0ec02512c42p-1 "
       "pp-approx 0x1.cd511cae45d14p-1 "
       "pp-approx 0x1.d6373b9845322p-1 "
       "pp-approx 0x1.dbc6bc374e296p-1 "
       "pp-approx 0x1.dfb0d393f3c8p-1 "
       "pp-approx 0x1.e2e34c595398bp-1 "
       "nncp 0x1.e45dde6908ea7p-1 "
       "pp-init 0x1.e45dde6908ea7p-1 "
       "pp-approx 0x1.e4ec01bece6fep-1 "
       "pp-approx 0x1.e54ff7f11c501p-1 "
       "pp-approx 0x1.e59983c85aa3fp-1 "
       "pp-approx 0x1.e5cfd690e0d57p-1 "
       "pp-approx 0x1.e5f73725fe753p-1 "
       "pp-approx 0x1.e6124c850887ap-1 "
       "pp-approx 0x1.e622c6d45429cp-1 "
       "pp-approx 0x1.e629b04ba010cp-1 "
       "pp-approx 0x1.e62793b344f5cp-1 "
       "pp-approx 0x1.e61c8b4bb90d2p-1 "
       "pp-approx 0x1.e6083e6b81876p-1 "
       "pp-approx 0x1.e5e9e425093c3p-1 "
       "pp-approx 0x1.e5c06ffc4ec1ep-1"},
      {"pp_nncp_par4_sparse", "24 6 2 16 ok 0x1.fffff479dfed5p-1",
       "nncp 0x1.11fc1e00569f4p-2 "
       "nncp 0x1.bc27fa6b5514ap-2 "
       "nncp 0x1.53bc59d47880cp-1 "
       "nncp 0x1.ecff94f876c6ap-1 "
       "nncp 0x1.fa43c863f227bp-1 "
       "pp-init 0x1.fa43c863f227bp-1 "
       "pp-approx 0x1.fd16e0c834b2bp-1 "
       "pp-approx 0x1.fe7f59a9eb61bp-1 "
       "pp-approx 0x1.ff36e5b5c6547p-1 "
       "pp-approx 0x1.ff96883b284f9p-1 "
       "pp-approx 0x1.ffc8ff6a9022fp-1 "
       "pp-approx 0x1.ffe3ec557171bp-1 "
       "pp-approx 0x1.fff28e47e2067p-1 "
       "pp-approx 0x1.fffaede78d86ap-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "nncp 0x1.fffe6792ce16ap-1 "
       "pp-init 0x1.fffe6792ce16ap-1 "
       "pp-approx 0x1.ffff1ecb3cdabp-1 "
       "pp-approx 0x1.ffff83c26aafdp-1 "
       "pp-approx 0x1.ffffbb6fb2cb7p-1 "
       "pp-approx 0x1.ffffda26797a8p-1 "
       "pp-approx 0x1.ffffeb1d9569p-1 "
       "pp-approx 0x1.fffff479dfed5p-1"},
  };
  return table;
}

/// Restores the OpenMP team size on scope exit.
class OmpThreads {
 public:
  explicit OmpThreads(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~OmpThreads() { omp_set_num_threads(saved_); }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int saved_;
};

/// Allowed per-sweep fitness drift from the recorded history. The recorded
/// parallel NNCP sweeps measured their residual with an extra MTTKRP of the
/// last mode plus a Reduce-Scatter; the driver now reuses the sweep's own
/// M, as ALS does. Both are the same M (it does not depend on the factor
/// just updated), but on dense storage the extra call also advanced the
/// stateful MSDT engine, so later sweeps contract in a different order:
/// the history moves by at most 8e-15 and the factors by 4e-15, while the
/// counters, phases and final fitness are unchanged. The stateless CSF
/// engine recomputes M exactly, so the sparse cell stays bit for bit.
double history_tol(const Cell& c) {
  return c.method == Method::kNncpHals && c.parallel && !c.sparse ? 1e-12
                                                                  : 0.0;
}

/// Checks a report against a recorded cell: counters, status and phases
/// exactly, the history's fitness values within `tol` (0 = bit for bit).
/// The callers check the final fitness, sum[5].
void expect_matches(const Golden& want, const solver::SolveReport& r,
                    double tol) {
  const std::vector<std::string> sum = tokens(want.summary);
  ASSERT_EQ(sum.size(), 6u);
  EXPECT_EQ(r.sweeps, std::stoi(sum[0]));
  EXPECT_EQ(r.num_als_sweeps, std::stoi(sum[1]));
  EXPECT_EQ(r.num_pp_init, std::stoi(sum[2]));
  EXPECT_EQ(r.num_pp_approx, std::stoi(sum[3]));
  EXPECT_EQ(solver::to_string(r.status), sum[4]);
  const std::vector<std::string> hist = tokens(want.history);
  ASSERT_EQ(2 * r.history.size(), hist.size());
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    const double fitness = hex_double(hist[2 * i + 1]);
    EXPECT_EQ(r.history[i].phase, hist[2 * i]) << "sweep " << i;
    if (tol == 0.0) {
      EXPECT_EQ(r.history[i].fitness, fitness)
          << "sweep " << i << " (" << r.history[i].phase << ")";
    } else {
      EXPECT_NEAR(r.history[i].fitness, fitness, tol)
          << "sweep " << i << " (" << r.history[i].phase << ")";
    }
  }
}

class GoldenHistory : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenHistory, MatchesBitForBit) {
  const Cell c = GetParam();
  const std::string name = cell_name(c);
  const Golden* want = nullptr;
  for (const Golden& g : golden_table())
    if (name == g.cell) want = &g;
  ASSERT_NE(want, nullptr) << "no golden record for " << name;

  const OmpThreads one(1);
  const solver::SolverSpec spec = golden_spec(c);
  const solver::SolveReport r = c.sparse ? parpp::solve(golden_sparse(), spec)
                                         : parpp::solve(golden_dense(), spec);
  expect_matches(*want, r, history_tol(c));
  EXPECT_EQ(r.fitness, hex_double(tokens(want->summary)[5]));
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (Method m :
       {Method::kAls, Method::kPp, Method::kNncpHals, Method::kPpNncp})
    for (bool parallel : {false, true})
      for (bool sparse : {false, true}) cells.push_back({m, parallel, sparse});
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllCells, GoldenHistory,
                         ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& param) {
                           return cell_name(param.param);
                         });

/// The two PP options the 16 cells leave at their defaults, on the PP
/// problems of the pp cells: a first-order-only approximation
/// (PpOptions::second_order = false) and a history without the
/// approximated sweeps (record_pp_sweeps = false). Recorded from the
/// sequential PP driver before sequential solves ran on the parallel core.
struct PpOptionCell {
  bool sparse;
  bool first_order;  ///< second_order = false; else record_pp_sweeps = false
  int nprocs;
};

std::string pp_option_name(const PpOptionCell& c, bool recorded) {
  return std::string(recorded || c.nprocs == 1 ? "pp_seq_" : "pp_par4_") +
         (c.sparse ? "sparse" : "dense") +
         (c.first_order ? "_first_order" : "_no_pp_records");
}

void PrintTo(const PpOptionCell& c, std::ostream* os) {
  *os << pp_option_name(c, false);
}

const std::vector<Golden>& pp_option_table() {
  static const std::vector<Golden> table{
      {"pp_seq_dense_first_order", "24 10 5 9 recovered 0x1.dcf829c56be43p-1",
       "als 0x1.7295b49c1c9a6p-1 "
       "als 0x1.c10725a3f36e6p-1 "
       "als 0x1.debbc1394c052p-1 "
       "pp-init 0x1.debbc1394c052p-1 "
       "pp-approx 0x1.e23d611d660eap-1 "
       "als 0x1.e524240e5dd39p-1 "
       "pp-init 0x1.e524240e5dd39p-1 "
       "pp-approx 0x1.e80b5c45909c7p-1 "
       "pp-approx 0x1p+0 "
       "pp-approx 0x1p+0 "
       "als 0x1.9c3058415cb34p-1 "
       "als 0x1.9fdf97d757a4bp-1 "
       "pp-init 0x1.9fdf97d757a4bp-1 "
       "pp-approx 0x1.a3e03e6cc3ef8p-1 "
       "pp-approx 0x1p+0 "
       "als 0x1.b015173b3ea8fp-1 "
       "als 0x1.c63d1d27fae29p-1 "
       "als 0x1.d37cb096949b8p-1 "
       "pp-init 0x1.d37cb096949b8p-1 "
       "als 0x1.d9ae048ae0062p-1 "
       "pp-init 0x1.d9ae048ae0062p-1 "
       "pp-approx 0x1.da70ba20d9314p-1"},
      {"pp_seq_dense_no_pp_records", "24 8 4 12 ok 0x1.d406ff7e0fadep-1",
       "als 0x1.7295b49c1c9a6p-1 "
       "als 0x1.c10725a3f36e6p-1 "
       "als 0x1.debbc1394c052p-1 "
       "pp-init 0x1.debbc1394c052p-1 "
       "als 0x1.794ee8edbdee6p-1 "
       "als 0x1.a81f38c523b14p-1 "
       "als 0x1.b329863f11c16p-1 "
       "pp-init 0x1.b329863f11c16p-1 "
       "als 0x1.c69086b0ea0fp-1 "
       "pp-init 0x1.c69086b0ea0fp-1 "
       "als 0x1.d246032c2e574p-1 "
       "pp-init 0x1.d246032c2e574p-1"},
      {"pp_seq_sparse_first_order", "24 5 3 16 recovered 0x1.ff10452fceddbp-1",
       "als 0x1.11f119a5edf2p-1 "
       "als 0x1.80503b2732d28p-1 "
       "als 0x1.b1139ea6b7f7ep-1 "
       "pp-init 0x1.b1139ea6b7f7ep-1 "
       "pp-approx 0x1.c6c2916a8e06ap-1 "
       "pp-approx 0x1.c111f040377ffp-1 "
       "als 0x1.d50f84d639e36p-1 "
       "pp-init 0x1.d50f84d639e36p-1 "
       "pp-approx 0x1.e4e3455b7e3fdp-1 "
       "pp-approx 0x1.e2c6a450bd08bp-1 "
       "pp-approx 0x1.de8eab36763ep-1 "
       "pp-approx 0x1.db550d98c86dap-1 "
       "pp-approx 0x1.d8bb2fb34fa5ap-1 "
       "pp-approx 0x1.d6385d68f8a82p-1 "
       "als 0x1.ec85bd1e77e4dp-1 "
       "pp-init 0x1.ec85bd1e77e4dp-1 "
       "pp-approx 0x1.f473f9938f71p-1 "
       "pp-approx 0x1.f3a5ad834435ap-1 "
       "pp-approx 0x1.f2573bb59a487p-1 "
       "pp-approx 0x1.f18cad870a8fdp-1 "
       "pp-approx 0x1.f1141a416327p-1 "
       "pp-approx 0x1.f0c333e34982ap-1"},
      {"pp_seq_sparse_no_pp_records", "24 4 2 18 ok 0x1.ffffe983b59c6p-1",
       "als 0x1.11f119a5edf2p-1 "
       "als 0x1.80503b2732d28p-1 "
       "als 0x1.b1139ea6b7f7ep-1 "
       "pp-init 0x1.b1139ea6b7f7ep-1 "
       "als 0x1.feb65ac5fe39ap-1 "
       "pp-init 0x1.feb65ac5fe39ap-1"},
  };
  return table;
}

class GoldenPpOptions : public ::testing::TestWithParam<PpOptionCell> {};

// One rank reproduces the recording bit for bit; four ranks reduce in a
// different order, so their histories are held to the 1e-8 seq/par parity
// bound with identical phases and counters.
TEST_P(GoldenPpOptions, MatchesSequentialRecording) {
  const PpOptionCell c = GetParam();
  const std::string name = pp_option_name(c, true);
  const Golden* want = nullptr;
  for (const Golden& g : pp_option_table())
    if (name == g.cell) want = &g;
  ASSERT_NE(want, nullptr) << "no golden record for " << name;

  const OmpThreads one(1);
  solver::SolverSpec spec =
      golden_spec({Method::kPp, c.nprocs > 1, c.sparse});
  if (c.first_order)
    spec.pp.second_order = false;
  else
    spec.pp.record_pp_sweeps = false;
  const solver::SolveReport r = c.sparse ? parpp::solve(golden_sparse(), spec)
                                         : parpp::solve(golden_dense(), spec);
  const double tol = c.nprocs == 1 ? 0.0 : 1e-8;
  expect_matches(*want, r, tol);
  EXPECT_NEAR(r.fitness, hex_double(tokens(want->summary)[5]), tol);
}

std::vector<PpOptionCell> pp_option_cells() {
  std::vector<PpOptionCell> cells;
  for (bool sparse : {false, true})
    for (bool first_order : {true, false})
      for (int nprocs : {1, 4}) cells.push_back({sparse, first_order, nprocs});
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    PpOptions, GoldenPpOptions, ::testing::ValuesIn(pp_option_cells()),
    [](const ::testing::TestParamInfo<PpOptionCell>& param) {
      return pp_option_name(param.param, false);
    });

}  // namespace
}  // namespace parpp
