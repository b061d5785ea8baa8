"""Golden CLI output: a sha256 of (exit code, stdout, stderr) per fixed argv.

Every subcommand at p = 2 and p = 3 and weight at most 12, in text and JSON,
with raw and variety input, with and without --max-weight, plus the
documented error exits, and one many-part action: the realization of the
weight-22 hypersurface H(4,19) at q = 3, 141 parts with H factors printed
as V/W, in both forms.  Argparse's own usage errors are left out, since
their wording changes between Python versions.  A digest here changes only
when the printed output does; to see what a case prints, run the argv
through ``python -m cobordlab.cli``.
"""

import hashlib
import json
import shlex

import pytest

from cobordlab.cli import main


def output_digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


# shell-quoted argv -> digest of its (exit code, stdout, stderr)
GOLDEN = {
    "class 'P(4)' -p 2":
        "7485dade4242a2bfd759e6e739db33387134f5c529e67fdd2bdf71d80b3102bb",
    "class 'P(4)' -p 2 --json":
        "81334d64a1f514d60b9a3153bffb5eaa0daed650efdbe719949b3ec8864cdce5",
    "class 'P(4)' -p 2 --max-weight 0":
        "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "class 'P(4)' -p 2 --max-weight 3":
        "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "class 'P(4)' -p 2 --max-weight 3 --json":
        "d6804da54073d516a4cfab4e5e9fcce44114f6c6a799cf7ea655a0a22cbe1d76",
    "class 'P(4)' -p 2 --max-weight 4 --json":
        "9e1a5b195c95c74a87df47d429aa7e027ef8c7a74ade6d51171a12141e11891e",
    "class 'P(4)*P(2)' -p 2 --max-weight 17":
        "27d12d73a8c575443cf2872b10ea1833a09f7745520387a3a2e685ce0160cc07",
    "class 'P(2)*P(2) + P(4)' -p 2 --max-weight 4 --json":
        "9b5d0dd6b43e6c9e889d09c674f34f559ecde499ed5d33d6d872826d566f623b",
    "class 'H(2,4)' -p 2":
        "30a695b4ed2c017e7d13ac4b531ebbfa7a64d4ab4d44c0c18d02a05544b3176c",
    "class 'H(4,2)' -p 2 --json":
        "6f8979ebc4f875feee17c1be9f5d58013fac51fe878da7598ba41aa58d5f70bd",
    "class '2.P(4)*H(2,4) + P(1)' -p 2":
        "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "class 'P(6)' -p 3":
        "54281bf8d9d68a61d1732f4d9f07f30c61117464b44e71f30fcc2635fb959bb3",
    "class 'P(6)' -p 3 --json":
        "9fe647ac51b94792d18280f133ae73ae92a285171f99ce4140301436e40a3aa5",
    "class 'H(3,6)' -p 3":
        "203df6db88929c235c4dc4b09f97088584469beab75204d5924db715eb5f7407",
    "class 'P(2)*H(3,6) + 2.P(8)' -p 3 --max-weight 9":
        "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "class 'b[2]*b[1]^2 + b[4]' -p 2":
        "ce15499b842a11f4451c54ff862fd584e85a15473509225f0a94a4d3ec04a619",
    "class 'b[2]*b[1]^2 + b[4]' -p 2 --json":
        "bf9bc5f95df5dfab8fb9afdbdcfc9bca0fed2406c3e85fb7bf47e3ca186a555b",
    "class 'b[2]*b[1]^2 + b[4]' -p 2 --max-weight 3":
        "27151a68e4dfcf96bb50111764b8c9759ae40e0ec3b14ad7cf1d511711d018cb",
    "class 'b[2]*b[1]^2 + b[4]' -p 2 --max-weight 17 --json":
        "bf9bc5f95df5dfab8fb9afdbdcfc9bca0fed2406c3e85fb7bf47e3ca186a555b",
    "class '2*b[3] + 5' -p 3":
        "01dd9410d123ce93511950cf57e0af4632a84458d7838937ec3a1e389e5dfa26",
    'class 3 -p 3 --max-weight 0 --json':
        "dba6b6c5f17f36aff9b5ae80a80d64e191559d9167235397ffe8ae93d944cb73",
    "express 'P(4)' -p 2":
        "873457c20f088ae4dcffc818ff76bcf7471590ecb83848475edf91cac9c83b89",
    "express 'P(4)' -p 2 --json":
        "d99a1550e720532cd5fe96e969f71e23501c917e60c36eadc87251e053e02fa4",
    "express 'P(12)' -p 2":
        "4c4936384be1b6a6e540776e94ae25bf4919d3059d7066407c92365a8d65475b",
    "express 'P(2)*P(4) + H(2,4)' -p 2 --json":
        "488c7c672275246be477ad5d855c43186b5b681cda44ed86b1132a1acf9d9b72",
    "express 'P(8)' -p 2 --family 'perturbed(1)'":
        "1114d1204bb6133e5238d2251658a95e2d13750593c7d07614d08f192ec40b15",
    "express 'b[2]*b[1]^2' -p 2":
        "379a80e9a4ad8b036b27f38173bce679d34d58eb4d110ec315df77acf9f231c1",
    "express 'b[2]*b[1]^2' -p 2 --json":
        "5753e2a43d7d55fcacc02a51923aee41cf28243c966b7993b086b0683a04a487",
    "express 'b[2]^2' -p 2 --max-weight 4":
        "05a1135e6694dd2efc751c3206b60fba6e87ecdaaf0078de9a997b7af16972ce",
    "express 'P(6)' -p 3":
        "ddc91d726594364c89f1a9599b4e4f2b2f597bcfbd08d9ef9f3a3bc0beb7e78a",
    "express 'H(3,6)' -p 3 --json":
        "3c22ad8c8efa80f7a62c18e62ed8a99b7fb451aa2629752391ff869071b3a963",
    "express 'P(2)*P(4)' -p 3 --max-weight 3":
        "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "express 'b[2]' -p 3":
        "86e86cb7aa30781c660fcf023e7c4e544e4330628d461eea1030f6f9bc182630",
    "dimq 'P(4)' -p 2 -q 2":
        "552150525542e2b38c1dd914b322bc97a473b89e1a372fd863ff654bebb64515",
    "dimq 'P(4)' -p 2 -q 4 --json":
        "167b9e4b523159e16286d306c7f7a98b90dba3777a4d7423b0c2411117c5a706",
    "dimq 'P(8)*P(2)' -p 2 -q 4":
        "ca35bd9eb61ae26baaa2ffba45d141ac798be403f865ebb31a5775be20db35be",
    "dimq 'P(6)' -p 3 -q 3":
        "b91f2d5a282bfe19f06c3c61ce2ae7ac93f90f671edea24a5a247ce13e457e98",
    "dimq 'P(12)' -p 3 -q 9 --json":
        "167b9e4b523159e16286d306c7f7a98b90dba3777a4d7423b0c2411117c5a706",
    "dimq 'b[2]*b[1]^2' -p 2 -q 2":
        "9c823cce963d271cdcb4f7304f8639f2ccc585d07c150742414e9620622486c2",
    "bound 'P(4)' -p 2 -q 2 --indices '' --parts 0 --small-d 1 --milnor-d 2 --json":
        "7b6332a908a2575c5a4f4e606248f30f34d9f419fc451b7de4e9a71d0c364bcf",
    "bound 'P(8)' -p 2 -q 2 --indices 2,4 --parts 1":
        "0913057f8c9ba32cb3448188da59f976761e10747db3ce55ef837593d1e32784",
    "bound 'P(8)' -p 2 -q 2 --indices 8 --parts 0":
        "db8271f656f6359a09ae090f73d6f301c562b077e29ca1faf2e1194d1ccae0a9",
    "bound 'P(6)' -p 3 -q 3 --json":
        "a7df19d8f576937ca4c39d4d162f5a239388bda8939fa3f47b49f015cb984e8f",
    "bound 'P(12)' -p 3 -q 3 --small-d 1":
        "95b9d9cd41b01f4f0b431a9559032cdf1a1b3e12106b4bca7f03861aa10e786e",
    "realize 'b[2]' -p 2 -q 2":
        "4dcb6633f8661d033f0e808aaae42a7b6acd5638b115125d6f60b2eb6af4e46d",
    "realize 'P(4)' -p 2 -q 2 --json":
        "038fc7d7aee072e8ee3bb1266bfbd5fb9acc99b5d98df77e0596c15d2f230ad7",
    "realize 'P(8)' -p 2 -q 4":
        "b4fa928f94ad53275f0ac819b0af797ac9724fb626ccd2006da1498bd5611035",
    "realize 'P(6)*P(2)' -p 3 -q 3 --json":
        "5bd613a4c6ba6b4cd287b3e9a6a353fb91a60cbcba9350aa503b820736ff219c",
    "realize 'H(4,19)' -p 3 -q 3":
        "835d22498c04c43c4d8931b5abaafbdf448236f49c76d61d5c2f3f6d530a4427",
    "realize 'H(4,19)' -p 3 -q 3 --json":
        "bd693c257a3544876cee375d9ba991e137ab59b97221f36853756db2cce29c83",
    "rho -p 2 -q 2 --np-minus ''":
        "1cd25d9cca2c7d93bb48fc0915a5040e03842013c01753189efbf50553cb40ff",
    'rho -p 3 -q 3 --members 6,8 --json':
        "d8c0c69b2b8d39648c2881aeafa9bfde14b28223ae649b0173d4baaca418f150",
    'rho -p 3 -q 9 --np-minus 2':
        "62b64788f32b3d838b5ea1c61238513fc37244afe0ca453476c8a9f0fe39df5d",
    'localize -p 2 --weights 0,1 --zeta 1 --json':
        "c6161ba47ac69095c634df96661d2fb3fc219bde1d694dec5d821dcf3c60d1c9",
    'localize -p 3 --weights 0,1,2 --zeta 2 --r 2':
        "224242cb33624b412d8526e1f1c0c1a6e33eb8c3266f7d1798e694e6162b793b",
    'localize -p 5 --weights 0,1,3 --t 1':
        "e6e0f73412cf5a94d9cb4a1a0a632ca6820591ac2b6756f2aae9928510b3405a",
    "class 'P(' -p 2":
        "bfca6e07d66d6023fbbe77ca7236461b7404991afe5f4792e6e6ddadf625814e",
    "class 'b[0]' -p 2":
        "b7c047dfb7eff0ed7b8fde430715565d0ef2317e828040deb801e66b44e3ed6a",
    "class 'b[17]' -p 2":
        "a3af76b379911b96773ad6e89970190ade8f5f3e255c1bcb0b4e2ca7b2dec59e",
    "class 'P(65)' -p 5":
        "a5c3b37956778810d2a03163dd83a50c40d0bcf0af94cc3b9d2a15850c8559db",
    "dimq 'P(4)' -p 2 -q 3":
        "ed46efba01bbfa37654a4a9c6eb8959278cc846e6869f5caa1d432894d20be30",
    "express 'P(4)' -p 2 --family bogus":
        "2f7da6dd22df76f35f84a51d2439ddb9583acce0a2f2bcf7a4ade5569561f724",
    "bound 'P(4)' -p 2 -q 2 --small-d 2":
        "1bade8df40cf0fd06f716330f4ca7282770b03a7e9e43906e8efb4fd6f3353a6",
    "rho -p 2 -q 2 --members 4 --np-minus ''":
        "ce76341b8881d04512860485ee400b32060a4f83ec9f2ed99652da0be8d5c78e",
    'localize -p 2 --weights 0,1 --r 0':
        "d1f8f6ea62983aeea05a6223cc42411fc989ab550f122947b46c544232ee3e68",
    'localize -p 4 --weights 0,1 --zeta 1':
        "6c1a7bfa518b08496004474725df6ececda0e3d7479e7ac4008ce1af84c9f5b4",
    "class 'P(4)' -p 4":
        "6c1a7bfa518b08496004474725df6ececda0e3d7479e7ac4008ce1af84c9f5b4",
    "realize 'b[2]+b[1]' -p 2 -q 2":
        "4fd236eb5693b339273d73ab375d5907bfdade3e4b395f49b9550d52a02ce67f",
    "dimq 'H(0,0)' -p 3 -q 3 --json":
        "94b8d4cc5f1098f3ea9e738315ed83d40ff500646010a932a02890e0f36a1174",
    # --max-weight caps a variety's class outside class, as it caps raw input
    "express 'P(8)' -p 2 --max-weight 7":
        "7f7fab3d0fc0ef44da70db104f188fa0c9bd160a45160e069a01468924262f7a",
    "express 'P(8)' -p 2 --max-weight 8":
        "3a15674cdee0958c99b672a00372a0607cf0457eea322fd93c833a597398be04",
    "express 'P(2)*P(4) + H(2,4)' -p 2 --max-weight 5 --json":
        "5822adf02337beeebb3e7e2aec9536f6a7d0c1752bb6d6c2c5012caeac0bae57",
    "dimq 'P(8)' -p 2 -q 2 --max-weight 1":
        "f05d10d5e254e274098c565fa05948769516be9a815c37f9a1aa3c0c5018c33f",
    "dimq '2.P(1)' -p 2 -q 2 --max-weight 0":
        "5e49a9adfc3e295710c6f57f348ba05523f6c10d051e21919b770ea802ca473e",
    "bound 'P(6)' -p 3 -q 3 --max-weight 5 --json":
        "5822adf02337beeebb3e7e2aec9536f6a7d0c1752bb6d6c2c5012caeac0bae57",
    "bound 'P(6)' -p 3 -q 3 --max-weight 6 --json":
        "a7df19d8f576937ca4c39d4d162f5a239388bda8939fa3f47b49f015cb984e8f",
    "realize 'P(4)' -p 2 -q 2 --max-weight 4 --json":
        "038fc7d7aee072e8ee3bb1266bfbd5fb9acc99b5d98df77e0596c15d2f230ad7",
    "realize 'P(6) + P(4)' -p 3 -q 3 --max-weight 5":
        "5822adf02337beeebb3e7e2aec9536f6a7d0c1752bb6d6c2c5012caeac0bae57",
    # two off-ring components: weight 7 fails at one part, weight 4 at three;
    # the witness comes from the lighter weight
    "express -p 2 'b[7] + b[2]*b[1]^2'":
        "379a80e9a4ad8b036b27f38173bce679d34d58eb4d110ec315df77acf9f231c1",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_output_is_unchanged(capsys, argv):
    code = main(shlex.split(argv))
    captured = capsys.readouterr()
    assert output_digest(code, captured.out, captured.err) == GOLDEN[argv]
