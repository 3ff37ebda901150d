#include "src/common/ledger.h"

namespace dfil {

void TimeLedger::GrowPools(int pool) { pools_.resize(static_cast<size_t>(pool) + 1); }

}  // namespace dfil
