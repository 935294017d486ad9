package admission

import "context"

// Meta carries per-query admission attributes: the query's scheduling
// priority (higher first, 0 = default). Frontends attach it to the request
// context; admission points read it with MetaFrom.
type Meta struct {
	Priority int
}

type metaKey struct{}

// WithMeta returns a context carrying the query's admission attributes.
func WithMeta(ctx context.Context, m Meta) context.Context {
	return context.WithValue(ctx, metaKey{}, m)
}

// MetaFrom extracts admission attributes from the context; the zero Meta
// (default priority) when absent.
func MetaFrom(ctx context.Context) Meta {
	m, _ := ctx.Value(metaKey{}).(Meta)
	return m
}
