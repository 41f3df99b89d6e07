// Umbrella header: the full public API of the atmatrix library.
// Include individual headers instead when compile time matters.

#ifndef ATMX_ATMX_H_
#define ATMX_ATMX_H_

#include "common/config.h"
#include "common/status.h"
#include "common/types.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "estimate/density_estimator.h"
#include "estimate/density_map.h"
#include "estimate/water_level.h"
#include "gen/rmat.h"
#include "gen/synthetic.h"
#include "gen/workloads.h"
#include "morton/hilbert.h"
#include "morton/morton.h"
#include "ops/atmult.h"
#include "ops/chain.h"
#include "ops/explain.h"
#include "ops/retile.h"
#include "ops/spmv.h"
#include "ops/transpose.h"
#include "storage/convert.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"
#include "storage/matrix_market.h"
#include "storage/serialize.h"
#include "tile/at_matrix.h"
#include "tile/partitioner.h"
#include "topology/system_topology.h"
#include "viz/render.h"

#endif  // ATMX_ATMX_H_
