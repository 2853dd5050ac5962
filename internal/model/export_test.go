package model

// SplitWork exposes splitWork to the external tests, which size their
// inputs to reach it.
const SplitWork = splitWork
