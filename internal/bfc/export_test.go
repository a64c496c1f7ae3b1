package bfc

// RefReplay is the scan-everything reference replay (refReplay), exposed to
// the external bfc_test package: its tests build traces with graph, which
// imports bfc.
var RefReplay = refReplay
