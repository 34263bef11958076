package bitutil

// FoldStep exposes foldStep to the external fold tests, which need the
// predictor configurations and so cannot live in this package.
var FoldStep = foldStep
