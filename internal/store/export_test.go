package store

// RequireStoresEqual exposes requireStoresEqual to the external test
// package, whose tests also import search (which imports store).
var RequireStoresEqual = requireStoresEqual
