package experiments

// RegistryVersion names the current generation of the experiment and
// program registries for cache-key stamping (see rvd.CacheKey): bump it
// whenever a registered program's semantics change in a way that could
// alter any shard's results without changing the shard's wire encoding.
// Encoding-visible changes are already covered by dist.CodecVersion;
// this covers the silent kind. rvd folds both into every cache key, so
// a bump makes all previously cached results structurally unreachable
// rather than wrong.
const RegistryVersion = 1
