package bgp

// Hooks for the external oracle test: the uncached production decision
// and its reference form, both bypassing the route cache.
var (
	ResolveRoute   = (*Resolver).resolveRoute
	ReferenceRoute = (*Resolver).referenceRoute
)
