package nameserver

import (
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
)

// RPCService exposes a Server over the rpc package — the paper's §6 client
// interface, with marshalling generated from the types rather than written
// by hand. Register it as "NS". A replica node is a Server whose commit is
// replicated, so clients talk to replicated and unreplicated daemons
// identically: an update acks once the node's commit returns, an enquiry
// answers from the local tree.
type RPCService struct {
	srv *Server
}

// NewRPCService wraps a Server for remote access.
func NewRPCService(s *Server) *RPCService { return &RPCService{srv: s} }

// LookupArgs names a single entry.
type LookupArgs struct{ Name string }

// LookupReply carries a value.
type LookupReply struct{ Value string }

// Lookup is the remote enquiry.
func (s *RPCService) Lookup(args *LookupArgs, reply *LookupReply) error {
	v, err := s.srv.Lookup(args.Name)
	reply.Value = v
	return err
}

// SetArgs carries one binding.
type SetArgs struct{ Name, Value string }

// SetReply is empty.
type SetReply struct{}

// Set is the remote update. It takes the rpc layer's span context so a
// traced request's commit timeline chains under the caller's trace.
func (s *RPCService) Set(args *SetArgs, reply *SetReply, sc obs.SpanContext) error {
	parts, err := SplitPath(args.Name)
	if err != nil {
		return err
	}
	return s.srv.ApplyTraced(&SetValue{Path: parts, Value: args.Value}, sc)
}

// DeleteArgs names a subtree.
type DeleteArgs struct{ Name string }

// DeleteReply is empty.
type DeleteReply struct{}

// Delete removes a subtree remotely.
func (s *RPCService) Delete(args *DeleteArgs, reply *DeleteReply, sc obs.SpanContext) error {
	parts, err := SplitPath(args.Name)
	if err != nil {
		return err
	}
	return s.srv.ApplyTraced(&DeleteSubtree{Path: parts}, sc)
}

// ListArgs names a node.
type ListArgs struct{ Name string }

// ListReply carries sorted child labels.
type ListReply struct{ Labels []string }

// List enumerates a node's children remotely.
func (s *RPCService) List(args *ListArgs, reply *ListReply) error {
	labels, err := s.srv.List(args.Name)
	reply.Labels = labels
	return err
}

// EnumerateArgs names a subtree.
type EnumerateArgs struct{ Name string }

// EnumerateReply carries all (name, value) pairs beneath it.
type EnumerateReply struct {
	Names  []string
	Values []string
}

// Enumerate browses a whole subtree remotely.
func (s *RPCService) Enumerate(args *EnumerateArgs, reply *EnumerateReply) error {
	return s.srv.Enumerate(args.Name, func(name, value string) error {
		reply.Names = append(reply.Names, name)
		reply.Values = append(reply.Values, value)
		return nil
	})
}

func init() {
	pickle.Register(&LookupArgs{})
	pickle.Register(&LookupReply{})
	pickle.Register(&SetArgs{})
	pickle.Register(&SetReply{})
	pickle.Register(&DeleteArgs{})
	pickle.Register(&DeleteReply{})
	pickle.Register(&ListArgs{})
	pickle.Register(&ListReply{})
	pickle.Register(&EnumerateArgs{})
	pickle.Register(&EnumerateReply{})
}
