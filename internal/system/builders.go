package system

import (
	"fmt"

	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/fullmap"
	"twobit/internal/memory"
	"twobit/internal/proto"
)

// builderFor returns the builder implementing the given protocol.
func builderFor(p Protocol) (builder, error) {
	switch p {
	case TwoBit:
		return &twoBitBuilder{}, nil
	case FullMap:
		return &fullMapBuilder{}, nil
	case FullMapExclusive:
		return &fullMapBuilder{exclusive: true}, nil
	case Classical:
		return &classicalBuilder{}, nil
	case Duplication:
		return &duplicationBuilder{}, nil
	case WriteOnce:
		return &writeOnceBuilder{}, nil
	case Software:
		return &softwareBuilder{}, nil
	}
	return nil, fmt.Errorf("system: unknown protocol %v", p)
}

// directoryAgentConfig derives cache agent k's configuration from the
// machine's current config, shared by construction and reset.
func directoryAgentConfig(m *Machine, k int, exclusive bool) proto.AgentConfig {
	return proto.AgentConfig{
		Index:             k,
		Topo:              m.topo,
		Lat:               m.cfg.Lat,
		DisableCleanEject: m.cfg.DisableCleanEject,
		ExclusiveGrants:   exclusive,
		Commit:            m.commitHook(),
		Obs:               m.cfg.Obs,
	}
}

// directoryAgents builds the shared cache-side agents used by the two-bit
// and full-map protocols.
func directoryAgents(m *Machine, exclusive bool) ([]*proto.CacheAgent, []proto.CacheSide) {
	agents := make([]*proto.CacheAgent, m.cfg.Procs)
	sides := make([]proto.CacheSide, m.cfg.Procs)
	for k := 0; k < m.cfg.Procs; k++ {
		store := cache.New(m.cacheConfig(k))
		agents[k] = proto.NewCacheAgent(directoryAgentConfig(m, k, exclusive), m.kernel, m.net, store)
		sides[k] = agents[k]
	}
	return agents, sides
}

// resetDirectoryAgents restores pooled directory agents and their cache
// stores, re-deriving value parameters (commit hook, latencies, cache
// seed/policy) from the machine's current config.
func resetDirectoryAgents(m *Machine, agents []*proto.CacheAgent, exclusive bool) {
	for k, a := range agents {
		a.Store().Reset(m.cacheConfig(k))
		a.Reset(directoryAgentConfig(m, k, exclusive))
	}
}

// twoBitBuilder assembles the paper's two-bit scheme.
type twoBitBuilder struct {
	agents []*proto.CacheAgent
	ctrls  []*core.Controller
	mems   []*memory.Module
}

func (b *twoBitBuilder) buildCaches(m *Machine) []proto.CacheSide {
	agents, sides := directoryAgents(m, false)
	b.agents = agents
	return sides
}

func (b *twoBitBuilder) coreConfig(m *Machine, j int) core.Config {
	return core.Config{
		Module:                j,
		Topo:                  m.topo,
		Space:                 m.space,
		Lat:                   m.cfg.Lat,
		Mode:                  m.cfg.Mode,
		TranslationBufferSize: m.cfg.TranslationBufferSize,
		Hooks:                 m.cfg.CoreHooks,
		Commit:                m.commitHook(),
		Obs:                   m.cfg.Obs,
	}
}

func (b *twoBitBuilder) buildCtrls(m *Machine) []proto.MemSide {
	out := make([]proto.MemSide, m.cfg.Modules)
	b.ctrls = make([]*core.Controller, m.cfg.Modules)
	b.mems = make([]*memory.Module, m.cfg.Modules)
	for j := 0; j < m.cfg.Modules; j++ {
		mem := memory.NewModule(m.space, j, m.cfg.Lat.Memory)
		c := core.New(b.coreConfig(m, j), m.kernel, m.net, mem)
		b.mems[j] = mem
		b.ctrls[j] = c
		out[j] = c
	}
	return out
}

func (b *twoBitBuilder) reset(m *Machine) {
	resetDirectoryAgents(m, b.agents, false)
	for j, c := range b.ctrls {
		b.mems[j].Reset(m.cfg.Lat.Memory)
		c.Reset(b.coreConfig(m, j))
	}
}

func (b *twoBitBuilder) checkInvariants(m *Machine) error {
	return checkCtrlInvariants(m, b.ctrls, checkTwoBitState)
}

// fullMapBuilder assembles the Censier–Feautrier baseline, optionally with
// the Yen–Fu exclusive state.
type fullMapBuilder struct {
	exclusive bool
	agents    []*proto.CacheAgent
	ctrls     []*fullmap.Controller
	mems      []*memory.Module
}

func (b *fullMapBuilder) buildCaches(m *Machine) []proto.CacheSide {
	agents, sides := directoryAgents(m, b.exclusive)
	b.agents = agents
	return sides
}

func (b *fullMapBuilder) fullmapConfig(m *Machine, j int) fullmap.Config {
	return fullmap.Config{
		Module:         j,
		Topo:           m.topo,
		Space:          m.space,
		Lat:            m.cfg.Lat,
		Mode:           m.cfg.Mode,
		LocalExclusive: b.exclusive,
		Commit:         m.commitHook(),
		Obs:            m.cfg.Obs,
	}
}

func (b *fullMapBuilder) buildCtrls(m *Machine) []proto.MemSide {
	out := make([]proto.MemSide, m.cfg.Modules)
	b.ctrls = make([]*fullmap.Controller, m.cfg.Modules)
	b.mems = make([]*memory.Module, m.cfg.Modules)
	for j := 0; j < m.cfg.Modules; j++ {
		mem := memory.NewModule(m.space, j, m.cfg.Lat.Memory)
		c := fullmap.New(b.fullmapConfig(m, j), m.kernel, m.net, mem)
		b.mems[j] = mem
		b.ctrls[j] = c
		out[j] = c
	}
	return out
}

func (b *fullMapBuilder) reset(m *Machine) {
	resetDirectoryAgents(m, b.agents, b.exclusive)
	for j, c := range b.ctrls {
		b.mems[j].Reset(m.cfg.Lat.Memory)
		c.Reset(b.fullmapConfig(m, j))
	}
}

func (b *fullMapBuilder) checkInvariants(m *Machine) error {
	return checkCtrlInvariants(m, b.ctrls, m.checkFullMapState)
}
