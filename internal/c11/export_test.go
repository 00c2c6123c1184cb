package c11

// CheckAgainstOracle exposes checkAgainstOracle to this package's
// external tests, which reach the litmus and synthesized suites (both
// import c11).
var CheckAgainstOracle = checkAgainstOracle
