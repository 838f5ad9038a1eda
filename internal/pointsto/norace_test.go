//go:build !race

package pointsto

// raceBuild reports whether the tests run under the race detector.
const raceBuild = false
