package graph

// BlockScratch and ReduceRow expose one kernel block of the two-hop
// reducer to the external tests, which drive it over the real stores
// (those import this package, so the tests cannot live inside it).
type BlockScratch = blockScratch

var ReduceRow = reduceRow
