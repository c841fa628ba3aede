package iotrace

// LoadMismatch exposes loadMismatch to the external differential tests,
// which seed FuzzLoadJSON from the builtin workflows.
var LoadMismatch = loadMismatch
